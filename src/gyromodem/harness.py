"""Experiment runner: seeded BER/SNR sweeps over distance presets, plus
spectrogram export for external plotting."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from . import channel, framing, modem_tx
from .channel import ChannelCondition, DeviceProfile, apply_channel, distance_to_snr
from .countermeasure import JammerConfig, jam_waveform
from .modem_rx import DemodConfig, demodulate_stream
from .modem_tx import FskConfig, transmit_frames, uniform_tones
from .sigcore import ConfigError, GyroTrace, Waveform, frames, from_dict, magnitude_stream

DB_FLOOR = -120.0


@dataclass(frozen=True)
class ExperimentConfig:
    profile: str
    modulation: str = "bfsk"          # "bfsk" or "mfsk"
    order: int = 2
    bit_time: float = 0.7
    room: str = "open"
    distances_cm: Tuple[float, ...] = ()
    frames_per_point: int = 50
    seed: int = 0
    amplitude: float = modem_tx.DEFAULT_AMPLITUDE
    mfsk_band: Tuple[float, float] = (19000.0, 19105.0)
    jammer: Optional[JammerConfig] = None
    filter_cutoff: Optional[float] = None

    def __post_init__(self):
        if self.frames_per_point < 1:
            raise ConfigError(f"frames_per_point must be >= 1, got {self.frames_per_point}")
        if not self.mfsk_band[0] < self.mfsk_band[1]:
            raise ConfigError(f"mfsk_band must ascend, got {self.mfsk_band}")
        if self.modulation not in ("bfsk", "mfsk"):
            raise ConfigError(f"modulation must be 'bfsk' or 'mfsk', got {self.modulation!r}")
        if self.modulation == "bfsk" and self.order != 2:
            raise ConfigError(f"bfsk implies order 2, got {self.order}")
        if self.filter_cutoff is not None and self.filter_cutoff <= 0:
            raise ConfigError(f"filter_cutoff must be positive or null, "
                              f"got {self.filter_cutoff}")


@dataclass
class BerRow:
    distance_cm: float
    snr_db: float
    ber: float
    frame_loss: float
    frames_synced: int


@dataclass
class BerTable:
    rows: List[BerRow] = field(default_factory=list)

    def to_csv(self, destination) -> None:
        with Path(destination).open("w", newline="") as fp:
            fp.write("distance_cm,snr_db,ber_fraction,frame_loss_fraction\n")
            for r in self.rows:
                fp.write(f"{r.distance_cm:g},{r.snr_db:g},"
                         f"{r.ber:.6f},{r.frame_loss:.6f}\n")


def fsk_config_for(profile: DeviceProfile, cfg: ExperimentConfig) -> FskConfig:
    tones = (profile.fsk_pair if cfg.modulation == "bfsk"
             else uniform_tones(*cfg.mfsk_band, cfg.order))
    return FskConfig(tone_freqs=tones, bit_time=cfg.bit_time, amplitude=cfg.amplitude)


def demod_config_for(profile: DeviceProfile, fsk: FskConfig) -> DemodConfig:
    g = []
    for f in fsk.tone_freqs:
        gf = channel.gyro_frequency(f, profile)
        if gf is None:
            raise channel.ChannelError(
                f"tone {f} Hz outside {profile.name}'s resonance band")
        g.append(gf)
    return DemodConfig(bit_time=fsk.bit_time, g_freqs=tuple(g))


def _point_seed(seed: int, *parts: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, *[p & 0xFFFFFFFF for p in parts]])


def run_point(profile: DeviceProfile, fsk: FskConfig, rxcfg: DemodConfig,
              snr_db: float, n_frames: int, seed: int, point_index: int,
              jammer: Optional[JammerConfig] = None,
              filter_cutoff: Optional[float] = None) -> BerRow:
    """Simulate n_frames single-frame transmissions at one SNR point."""
    wrong_bits = 0
    synced = 0
    lost = 0
    for fi in range(n_frames):
        rng = _point_seed(seed, point_index, fi)
        payload = tuple(int(b) for b in rng.integers(0, 2, framing.PAYLOAD_BITS))
        wave = transmit_frames([payload], fsk, gap=0.0)
        jam = None
        if jammer is not None:
            jam = jam_waveform(replace(jammer, seed=int(rng.integers(0, 2 ** 31)),
                                       total_duration=wave.duration))
        noise_seed = int(rng.integers(0, 2 ** 31))
        cond = ChannelCondition(snr_db=snr_db, noise_seed=noise_seed, jammer=jam,
                                filter_cutoff=filter_cutoff)
        trace = apply_channel(wave, profile, cond)
        report = demodulate_stream(trace, rxcfg)
        if not report.frames:
            lost += 1
            continue
        frame = report.frames[0]
        synced += 1
        if not frame.parity_valid:
            lost += 1
        wrong_bits += sum(a != b for a, b in zip(frame.payload, payload))
    ber = wrong_bits / (framing.PAYLOAD_BITS * synced) if synced else 0.0
    return BerRow(distance_cm=0.0, snr_db=snr_db, ber=ber,
                  frame_loss=lost / n_frames, frames_synced=synced)


def run_ber_experiment(cfg: ExperimentConfig, profile_dir=None) -> BerTable:
    """Distance sweep: per distance, derive the SNR from the room preset
    and measure BER / frame loss over seeded random frames."""
    profile = channel.get_profile(cfg.profile, profile_dir)
    preset = channel.get_preset(cfg.profile, cfg.room)
    fsk = fsk_config_for(profile, cfg)
    rxcfg = demod_config_for(profile, fsk)
    distances = cfg.distances_cm or tuple(d for d, _ in preset.entries)
    table = BerTable()
    for di, dist in enumerate(distances):
        snr = distance_to_snr(preset, dist)
        row = run_point(profile, fsk, rxcfg, snr, cfg.frames_per_point,
                        cfg.seed, di, jammer=cfg.jammer,
                        filter_cutoff=cfg.filter_cutoff)
        row.distance_cm = dist
        table.rows.append(row)
    return table


def effective_data_rate(bit_time: float,
                        gap: float = modem_tx.DEFAULT_FRAME_GAP) -> Tuple[float, float]:
    """(payload bits/s, raw channel bits/s) for the 17-bit frame format."""
    payload_rate = framing.PAYLOAD_BITS / (framing.FRAME_BITS * bit_time + gap)
    return payload_rate, 1.0 / bit_time


def emit_spectrogram(source: Union[Waveform, GyroTrace], fft_size: int,
                     noverlap: int, destination) -> None:
    """CSV matrix: first row frequency bins (Hz), first column frame start
    times (s), cells Hann-window magnitude in dB."""
    if len(source) == 0:
        raise ValueError("cannot emit a spectrogram of an empty input")
    if isinstance(source, Waveform):
        x, rate = source.samples, source.sample_rate
    else:
        x = magnitude_stream(source)
        x = x - x.mean()
        rate = source.sample_rate
    spectra = np.fft.rfft(frames(x, fft_size, noverlap) * np.hanning(fft_size), axis=1)
    db = 20 * np.log10(np.maximum(np.abs(spectra), 10 ** (DB_FLOOR / 20)))
    times = (fft_size - noverlap) * np.arange(len(db)) / rate
    freqs = np.fft.rfftfreq(fft_size, d=1.0 / rate)
    with Path(destination).open("w", newline="") as fp:
        fp.write("time_s," + ",".join(f"{f:.3f}" for f in freqs) + "\n")
        for t, row in zip(times, db):
            fp.write(f"{t:.6f}," + ",".join(f"{v:.2f}" for v in row) + "\n")


def load_experiment_config(source) -> ExperimentConfig:
    """Experiment description as a JSON document keyed by the field names;
    the jammer, when present, is an object keyed by JammerConfig's."""
    with Path(source).open() as fp:
        return from_dict(ExperimentConfig, json.load(fp))
