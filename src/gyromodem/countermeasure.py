"""Countermeasures: random in-band tone jammer and a software analog of the
one-pole RC speaker output filter."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import signal as sps

from .sigcore import DEFAULT_AUDIO_RATE, FrequencyRangeError, Waveform

RAMP_SECONDS = 0.005  # raised-cosine edges keep jam energy inside the band


@dataclass(frozen=True)
class JammerConfig:
    f_min: float
    f_max: float
    T: float = 1.0           # max burst / gap duration, seconds
    max_volume: float = 0.2
    seed: int = 0
    total_duration: float = 10.0
    # fixed per-burst volume; None draws each burst from (0, max_volume]
    volume: Optional[float] = None

    def __post_init__(self):
        if self.f_min >= self.f_max:
            raise ValueError("f_min must be below f_max")
        if self.T <= 0:
            raise ValueError("T must be positive")
        if not 0 < self.max_volume <= 1:
            raise ValueError("max_volume must be in (0, 1]")
        if self.volume is not None and not 0 < self.volume <= self.max_volume:
            raise ValueError("volume must be in (0, max_volume]")
        if self.total_duration <= 0:
            raise ValueError("total_duration must be positive")


def _ramped(tone: np.ndarray, ramp_len: int) -> np.ndarray:
    n = min(ramp_len, len(tone) // 2)
    if n > 0:
        edge = 0.5 * (1 - np.cos(np.pi * np.arange(n) / n))
        tone[:n] *= edge
        tone[-n:] *= edge[::-1]
    return tone


def jam_waveform(cfg: JammerConfig,
                 sample_rate: int = DEFAULT_AUDIO_RATE) -> Waveform:
    """Random tone bursts in [f_min, f_max] separated by random gaps, looped
    until total_duration is filled. Deterministic per seed."""
    if cfg.f_max >= sample_rate / 2:
        raise FrequencyRangeError("jammer band reaches Nyquist")
    rng = np.random.default_rng(cfg.seed)
    total = int(round(cfg.total_duration * sample_rate))
    ramp_len = int(round(RAMP_SECONDS * sample_rate))
    out = np.zeros(total)
    pos = 0
    while pos < total:
        freq = rng.uniform(cfg.f_min, cfg.f_max)
        # uniform over (0, x]: flip the half-open interval of rng.uniform
        duration = cfg.T * (1.0 - rng.uniform(0.0, 1.0))
        volume = cfg.max_volume * (1.0 - rng.uniform(0.0, 1.0))
        if cfg.volume is not None:
            volume = cfg.volume
        n = int(round(duration * sample_rate))
        n = min(n, total - pos)
        if n > 0:
            t = np.arange(n) / sample_rate
            tone = volume * np.sin(2 * np.pi * freq * t)
            out[pos:pos + n] = _ramped(tone, ramp_len)
            pos += n
        gap = cfg.T * (1.0 - rng.uniform(0.0, 1.0))
        pos += int(round(gap * sample_rate))
    return Waveform(out, sample_rate)


def lowpass(w: Waveform, cutoff: float) -> Waveform:
    """Single-pole recursive low-pass with its -3 dB point at cutoff,
    mirroring a one-stage RC filter on the speaker output."""
    nyquist = w.sample_rate / 2
    if not 0 < cutoff < nyquist:
        raise FrequencyRangeError(
            f"cutoff {cutoff} Hz outside (0, {nyquist}) at {w.sample_rate} Hz")
    b, a = sps.butter(1, cutoff, fs=w.sample_rate)
    y = sps.lfilter(b, a, w.samples)
    return Waveform(np.clip(y, -1.0, 1.0), w.sample_rate)
