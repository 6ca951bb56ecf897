"""Acoustic-to-gyroscope channel simulator.

Ultrasonic energy inside a device's resonance band reappears in the
gyroscope output at the offset frequency (f - band_lo), capped at the
device's gyro-domain ceiling. The simulator heterodynes the in-band
acoustic content down to baseband, resamples it to the gyro rate,
applies a resonance saturation nonlinearity, distributes it across the
affected axes, and adds seeded Gaussian sensor noise calibrated to a
requested tone-bin SNR.
"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import ndimage
from scipy import signal as sps

from .sigcore import (DEFAULT_GYRO_RATE, TONE_FFT_SIZE, GyroTrace, Waveform,
                      active_snr_db, bin_index, frame_spectra, from_dict,
                      tone_power)

# Critical in-band drive level past which the MEMS resonance response
# collapses. Units are complex-envelope acoustic amplitude: a full-scale
# real tone has envelope 0.5, the default 0.2-amplitude carrier 0.1. A
# single constant-envelope tone below the level is never distorted;
# superposed sources beat above it and get their beat maxima quenched.
SATURATION_LEVEL = 0.15

# Sensor-noise spectral shaping: the resonance band of the gyro output is
# noisier than the rest of the spectrum by this power factor.
INBAND_NOISE_BOOST = 2.0

# Constant per-axis bias (rad/s); real gyros are never zero-centred, and the
# bias is what lets the vector-magnitude stream carry the injected frequency.
DEFAULT_AXIS_BIAS = (0.031, 0.024, 0.043)

PAD_SECONDS = 1.2  # silence guard around the input so filter edges settle


class ChannelError(ValueError):
    """Invalid channel-simulation request."""


@dataclass(frozen=True)
class DeviceProfile:
    """Per-device resonance response description."""

    name: str
    band_lo: float
    band_hi: float
    gyro_max_freq: float
    axis_weights: Tuple[float, float, float]
    fsk_pair: Tuple[float, float]
    response_amplitude: float = 0.02  # rad/s per unit acoustic amplitude

    def __post_init__(self):
        if self.band_lo >= self.band_hi:
            raise ChannelError(f"{self.name}: band_lo must be below band_hi")
        if not all(self.band_lo <= f <= self.band_hi for f in self.fsk_pair):
            raise ChannelError(f"{self.name}: FSK pair outside the resonance band")
        if any(w < 0 for w in self.axis_weights) or max(self.axis_weights) <= 0:
            raise ChannelError(f"{self.name}: need at least one positive axis weight")
        if self.gyro_max_freq > DEFAULT_GYRO_RATE / 2:
            raise ChannelError(f"{self.name}: gyro ceiling above gyro Nyquist")


@dataclass(frozen=True)
class ChannelCondition:
    """Everything that determines one simulation run.

    snr_db=None disables noise. noise_rms pins the per-axis noise level
    directly (rad/s), bypassing SNR calibration; useful for comparing
    conditions where only the transmit path changes.
    """

    snr_db: Optional[float] = None
    noise_seed: int = 0
    jammer: Optional[Waveform] = None
    noise_rms: Optional[float] = None


@dataclass(frozen=True)
class DistancePreset:
    """Distance (cm) to gyro-bin SNR (dB) lookup for one device in one room."""

    device: str
    room: str
    entries: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        dists = [d for d, _ in self.entries]
        if any(b <= a for a, b in zip(dists, dists[1:])):
            raise ChannelError("preset distances must be strictly ascending")


BUILTIN_PROFILES: Dict[str, DeviceProfile] = {
    "oneplus7": DeviceProfile(
        name="oneplus7", band_lo=20050.0, band_hi=20200.0, gyro_max_freq=100.0,
        axis_weights=(1.0, 1.0, 0.3), fsk_pair=(20120.0, 20135.0)),
    "s9": DeviceProfile(
        name="s9", band_lo=19500.0, band_hi=19660.0, gyro_max_freq=100.0,
        axis_weights=(1.0, 1.0, 0.3), fsk_pair=(19580.0, 19588.0)),
    "s10": DeviceProfile(
        name="s10", band_lo=19000.0, band_hi=19077.0, gyro_max_freq=80.0,
        axis_weights=(1.0, 1.0, 0.0), fsk_pair=(19065.0, 19077.0)),
    # Wider response window used for the 32-tone experiments; the harness's
    # default M-FSK band must land above DC in the gyro domain.
    "s10_mfsk": DeviceProfile(
        name="s10_mfsk", band_lo=18980.0, band_hi=19110.0, gyro_max_freq=130.0,
        axis_weights=(1.0, 1.0, 0.0), fsk_pair=(19065.0, 19077.0)),
}

_ROOM1_DISTANCES = (0.0, 50.0, 100.0, 150.0, 200.0)
_ROOM2_DISTANCES = tuple(float(d) for d in range(100, 900, 100))

BUILTIN_PRESETS: Dict[Tuple[str, str], DistancePreset] = {}


def _add_preset(device: str, room: str, dists, snrs):
    BUILTIN_PRESETS[(device, room)] = DistancePreset(
        device=device, room=room,
        entries=tuple(zip(dists, (float(s) for s in snrs))))


_add_preset("oneplus7", "open", _ROOM1_DISTANCES, (35, 25, 15, 10, 7))
_add_preset("s9", "open", _ROOM1_DISTANCES, (43, 33, 33, 30, 25))
_add_preset("s10", "open", _ROOM1_DISTANCES, (37, 33, 28, 20, 10))
_add_preset("oneplus7", "narrow", _ROOM2_DISTANCES, (26, 20, 15, 14, 13, 10, 14, 12))
_add_preset("s9", "narrow", _ROOM2_DISTANCES, (22, 27, 20, 16, 28, 16, 18, 26))
_add_preset("s10", "narrow", _ROOM2_DISTANCES, (18, 15, 15, 14, 18, 10, 10, 18))
# The 32-tone runs reuse the S10 narrow-room link budget.
BUILTIN_PRESETS[("s10_mfsk", "narrow")] = replace(
    BUILTIN_PRESETS[("s10", "narrow")], device="s10_mfsk")
BUILTIN_PRESETS[("s10_mfsk", "open")] = replace(
    BUILTIN_PRESETS[("s10", "open")], device="s10_mfsk")


def gyro_frequency(f_acoustic: float, profile: DeviceProfile) -> Optional[float]:
    """Acoustic-to-gyro frequency map: offset above band_lo, capped at the
    device ceiling. Out-of-band tones produce no response (None)."""
    if not profile.band_lo <= f_acoustic <= profile.band_hi:
        return None
    return min(f_acoustic - profile.band_lo, profile.gyro_max_freq)


def distance_to_snr(preset: DistancePreset, distance_cm: float) -> float:
    """Preset value at listed distances, linear dB interpolation between."""
    dists = np.array([d for d, _ in preset.entries])
    snrs = np.array([s for _, s in preset.entries])
    if not dists[0] <= distance_cm <= dists[-1]:
        raise ChannelError(
            f"distance {distance_cm} cm outside preset range "
            f"[{dists[0]}, {dists[-1]}] for {preset.device}/{preset.room}")
    return float(np.interp(distance_cm, dists, snrs))


def superpose(a: Waveform, b: Waveform) -> Tuple[Waveform, int]:
    """Element-wise sum with zero-padding of the shorter input; values are
    clipped to [-1, +1] and the clip count is returned as a diagnostic."""
    if a.sample_rate != b.sample_rate:
        raise ChannelError(
            f"sample-rate mismatch: {a.sample_rate} vs {b.sample_rate}")
    n = max(len(a), len(b))
    total = np.zeros(n)
    total[:len(a)] += a.samples
    total[:len(b)] += b.samples
    clipped = int(np.count_nonzero(np.abs(total) > 1.0))
    return Waveform(np.clip(total, -1.0, 1.0), a.sample_rate), clipped


def _complex_shift(x: np.ndarray, freq: float, rate: float) -> np.ndarray:
    return x * np.exp(2j * np.pi * freq * np.arange(len(x)) / rate)


@lru_cache(maxsize=32)
def _lowpass_taps(numtaps: int, cutoff: float) -> np.ndarray:
    """firwin low-pass at the gyro rate, designed once and shared read-only."""
    taps = sps.firwin(numtaps, cutoff, fs=DEFAULT_GYRO_RATE)
    taps.flags.writeable = False
    return taps


@lru_cache(maxsize=8)
def _shifted_lowpass(fs: int, f_center: float):
    """resample_poly's own fs -> gyro-rate low-pass h, with its n_pre_pad
    leading zeros, modulated to g[j] = h[j]*exp(+2*pi*i*f_center*j/(fs*up)).
    Returns read-only (g.real, g.imag, up, down, n_pre_remove)."""
    ratio = Fraction(DEFAULT_GYRO_RATE, fs)
    up, down = ratio.numerator, ratio.denominator
    half_len = 10 * max(up, down)
    n_pre_pad = down - half_len % down
    h = sps.firwin(2 * half_len + 1, 1.0 / max(up, down), window=("kaiser", 5.0)) * up
    h = np.concatenate([np.zeros(n_pre_pad), h])
    # phases in whole cycles modulo one, so long inputs keep their precision
    g = h * np.exp(2j * np.pi * (f_center * np.arange(len(h)) % (fs * up)) / (fs * up))
    g_re, g_im = g.real.copy(), g.imag.copy()
    g_re.flags.writeable = g_im.flags.writeable = False
    return g_re, g_im, up, down, (half_len + n_pre_pad) // down


def _downconvert(x: np.ndarray, fs: int, f_center: float) -> np.ndarray:
    """resample_poly(x * exp(-2*pi*i*f_center*n/fs), up, down) from fs to the
    gyro rate without the input-rate mixer: two real passes of the shifted
    low-pass over the real input, then output p is multiplied by
    exp(-2*pi*i*f_center*p/gyro rate)."""
    g_re, g_im, up, down, skip = _shifted_lowpass(fs, f_center)
    p = np.arange(skip, skip + -(-len(x) * up // down))  # resample_poly's slice
    z = np.empty(len(p), dtype=np.complex128)
    z.real = sps.upfirdn(g_re, x, up, down)[p]
    z.imag = sps.upfirdn(g_im, x, up, down)[p]
    z *= np.exp(-2j * np.pi * (f_center * p % DEFAULT_GYRO_RATE) / DEFAULT_GYRO_RATE)
    return z


def _translate(w: Waveform, profile: DeviceProfile) -> np.ndarray:
    """In-band acoustic content -> unit-weight gyro-domain signal (acoustic
    amplitude units; caller scales by response_amplitude and axis weights)."""
    fs = w.sample_rate
    if fs < 2 * profile.band_hi:
        raise ChannelError(
            f"waveform rate {fs} Hz cannot carry the {profile.band_hi} Hz band")
    pad = int(round(PAD_SECONDS * fs))
    x = np.concatenate([np.zeros(pad), w.samples, np.zeros(pad)])

    f_center = 0.5 * (profile.band_lo + profile.band_hi)
    half_bw = 0.5 * (profile.band_hi - profile.band_lo)
    z = _downconvert(x, fs, f_center)

    # sharp band selection at the gyro rate: keep [-half_bw, +half_bw]
    z = sps.fftconvolve(z, _lowpass_taps(1001, half_bw + 2.0), mode="same")
    y = _complex_shift(z, f_center - profile.band_lo, DEFAULT_GYRO_RATE)

    # response ceiling: offsets above gyro_max_freq fold onto the ceiling
    bw = profile.band_hi - profile.band_lo
    gmax = profile.gyro_max_freq
    if bw > gmax:
        u = _complex_shift(y, -gmax / 2.0, DEFAULT_GYRO_RATE)
        lp = _lowpass_taps(801, gmax / 2.0 + 1.0)
        low = _complex_shift(sps.fftconvolve(u, lp, mode="same"), gmax / 2.0,
                             DEFAULT_GYRO_RATE)
        high = y - low
        y = low + np.abs(high) * np.exp(
            2j * np.pi * gmax * np.arange(len(y)) / DEFAULT_GYRO_RATE)

    return np.real(_saturate(y))


# phase-multiplication factor for the overloaded resonator response; high
# enough to smear the overload energy across the whole gyro-domain band
OVERLOAD_PHASE_SPREAD = 16


# once driven past the critical level a high-Q resonator stays disturbed
# for roughly its ring-down time (seconds)
OVERLOAD_HOLD_SECONDS = 0.1


def _saturate(y: np.ndarray) -> np.ndarray:
    """Overload response: a constant-envelope drive below the critical level
    passes untouched; past it the resonator loses phase coherence, modelled
    as an amplitude-limited, phase-multiplied (wideband) output that holds
    for the ring-down time."""
    env = np.abs(y)
    hold = max(int(round(OVERLOAD_HOLD_SECONDS * DEFAULT_GYRO_RATE)), 1)
    env = ndimage.maximum_filter1d(env, size=hold, mode="nearest")
    over = env > SATURATION_LEVEL
    if not np.any(over):
        return y
    chaotic = SATURATION_LEVEL * np.exp(1j * OVERLOAD_PHASE_SPREAD * np.angle(y))
    return np.where(over, chaotic, y)


def _shaped_noise(n: int, rng: np.random.Generator,
                  profile: DeviceProfile) -> np.ndarray:
    """Unit-floor Gaussian noise, (n, 3); the gyro resonance band carries
    INBAND_NOISE_BOOST times the out-of-band power density."""
    white = rng.standard_normal((n, 3))
    if INBAND_NOISE_BOOST > 1.0:
        lp = _lowpass_taps(301, profile.gyro_max_freq + 10.0)
        extra = rng.standard_normal((n, 3))
        extra = sps.fftconvolve(extra, lp[:, None], mode="same", axes=0)
        white = white + np.sqrt(INBAND_NOISE_BOOST - 1.0) * extra
    return white


def _fsk_gyro_freqs(profile: DeviceProfile) -> Tuple[float, float]:
    g = [gyro_frequency(f, profile) for f in profile.fsk_pair]
    return (g[0], g[1])


def _calibrate_sigma(clean: np.ndarray, unit_noise: np.ndarray,
                     profile: DeviceProfile, snr_db: float) -> float:
    """Binary-search the noise scale until the tone-SNR estimator (best axis,
    like the receiver's) reads the requested value on (clean + sigma*noise)."""
    g_freqs = _fsk_gyro_freqs(profile)
    axes = [ax for ax in range(3) if profile.axis_weights[ax] > 0]

    # the estimator's spectra are linear in their input, so precompute the
    # clean and unit-noise spectra once and evaluate every candidate sigma
    # without another FFT
    gbins = [bin_index(f, TONE_FFT_SIZE, DEFAULT_GYRO_RATE) for f in g_freqs]
    spec_pairs = [(frame_spectra(clean[:, ax], TONE_FFT_SIZE),
                   frame_spectra(unit_noise[:, ax], TONE_FFT_SIZE)) for ax in axes]

    def measured(sigma: float) -> float:
        return max(active_snr_db(*tone_power(np.abs(sc + sigma * sn) ** 2, gbins))
                   for sc, sn in spec_pairs)

    rms = float(np.sqrt(np.mean(clean[:, axes[0]] ** 2)))
    if rms <= 1e-12:
        # silence in, noise out: anchor the level to a nominal 20%-volume tone
        ref = 0.2 * profile.response_amplitude * max(profile.axis_weights)
        return ref / 10 ** (snr_db / 20.0)
    lo, hi = rms * 1e-9, rms * 1e4
    ceiling = measured(lo)
    if ceiling < snr_db:
        warnings.warn(
            f"requested SNR {snr_db} dB above the noiseless ceiling "
            f"({ceiling:.1f} dB); output is leakage-limited")
        return lo
    floor_db = measured(hi)
    if floor_db > snr_db:
        warnings.warn(
            f"requested SNR {snr_db} dB below the estimator floor "
            f"({floor_db:.1f} dB); returning the noisiest channel")
        return hi
    for _ in range(48):
        mid = np.sqrt(lo * hi)
        if measured(mid) > snr_db:
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(lo * hi))


def apply_channel(w: Waveform, profile: DeviceProfile,
                  cond: ChannelCondition) -> GyroTrace:
    """Simulate the full acoustic -> angular-velocity path. Deterministic for
    identical (waveform, profile, condition)."""
    if len(w) == 0:
        raise ChannelError("cannot simulate an empty waveform")
    if cond.jammer is not None:
        combined, _clipped = superpose(w, cond.jammer)
    else:
        combined = w

    base = _translate(combined, profile)
    weights = np.asarray(profile.axis_weights)
    clean = profile.response_amplitude * base[:, None] * weights[None, :]

    sigma = 0.0
    rng = np.random.default_rng(cond.noise_seed)
    unit_noise = _shaped_noise(len(base), rng, profile)
    if cond.noise_rms is not None:
        sigma = float(cond.noise_rms)
    elif cond.snr_db is not None:
        if cond.jammer is not None:
            # calibrate against the covert signal alone; jamming must not
            # quiet the channel noise
            base_clean = _translate(w, profile)
            clean_ref = profile.response_amplitude * base_clean[:, None] * weights[None, :]
        else:
            clean_ref = clean
        sigma = _calibrate_sigma(clean_ref, unit_noise, profile,
                                 float(cond.snr_db))

    data = clean + sigma * unit_noise + np.asarray(DEFAULT_AXIS_BIAS)[None, :]
    return GyroTrace.from_axes(data)


# ---------------------------------------------------------------------------
# serialization

def write_trace_csv(trace: GyroTrace, destination) -> None:
    path = Path(destination)
    with path.open("w", newline="") as fp:
        fp.write("t_us,x,y,z\n")
        for t, (x, y, z) in zip(trace.t_us, trace.data):
            fp.write(f"{int(t)},{float(x)!r},{float(y)!r},{float(z)!r}\n")


def read_trace_csv(source) -> GyroTrace:
    path = Path(source)
    t_list, rows = [], []
    with path.open(newline="") as fp:
        reader = csv.DictReader(fp)
        for row in reader:
            t_list.append(int(row["t_us"]))
            rows.append((float(row["x"]), float(row["y"]), float(row["z"])))
    t = np.array(t_list, dtype=np.int64)
    if len(t) < 2:
        raise ChannelError(f"{path}: cannot infer sample rate from <2 rows")
    sample_rate = int(round(1e6 / float(np.median(np.diff(t)))))
    return GyroTrace(t_us=t, data=np.array(rows), sample_rate=sample_rate)


def load_profile(source) -> DeviceProfile:
    """One JSON document per device, keyed by the profile field names (the
    inverse of dataclasses.asdict)."""
    with Path(source).open() as fp:
        return from_dict(DeviceProfile, json.load(fp))


def load_profiles(directory) -> Dict[str, DeviceProfile]:
    out = dict(BUILTIN_PROFILES)
    for path in sorted(Path(directory).glob("*.json")):
        p = load_profile(path)
        out[p.name] = p
    return out


def get_profile(name: str, profile_dir=None) -> DeviceProfile:
    table = load_profiles(profile_dir) if profile_dir else BUILTIN_PROFILES
    try:
        return table[name]
    except KeyError:
        raise ChannelError(
            f"unknown profile {name!r}; available: {', '.join(sorted(table))}")


def get_preset(device: str, room: str) -> DistancePreset:
    try:
        return BUILTIN_PRESETS[(device, room)]
    except KeyError:
        rooms = sorted({r for _, r in BUILTIN_PRESETS})
        devs = sorted({d for d, _ in BUILTIN_PRESETS})
        raise ChannelError(
            f"no preset for device={device!r} room={room!r}; "
            f"devices: {', '.join(devs)}; rooms: {', '.join(rooms)}")
