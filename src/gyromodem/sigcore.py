"""Core DSP primitives: tone/chirp synthesis, STFT, smoothing, and the one
tone-SNR core (frame spectra, tone/floor power, active-frame dB) that the
channel simulator, the receiver and the band sweep share.

Everything here is a pure function over immutable inputs; no global state.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

DEFAULT_AUDIO_RATE = 48000
DEFAULT_GYRO_RATE = 500


class FrequencyRangeError(ValueError):
    """Requested frequency is outside the representable band."""


class ConfigError(ValueError):
    """Inconsistent analysis parameters."""


@dataclass(frozen=True)
class Waveform:
    """Mono audio buffer. Samples are amplitudes in [-1, +1]."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_AUDIO_RATE

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.size and np.max(np.abs(self.samples)) > 1.0 + 1e-9:
            raise ValueError("waveform samples exceed full scale [-1, +1]")

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class Spectrogram:
    """Magnitude time-frequency matrix, one row per frame."""

    magnitudes: np.ndarray  # shape (frames, fft_size//2 + 1)
    freqs: np.ndarray       # Hz per bin
    times: np.ndarray       # seconds, frame start
    fft_size: int
    noverlap: int
    sample_rate: int


@dataclass(frozen=True)
class GyroTrace:
    """Timestamped 3-axis angular-velocity stream."""

    t_us: np.ndarray        # int64 microseconds, strictly increasing
    data: np.ndarray        # shape (n, 3) rad/s
    sample_rate: int = DEFAULT_GYRO_RATE

    def __post_init__(self):
        t = np.asarray(self.t_us, dtype=np.int64)
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 2 or d.shape[1] != 3:
            raise ValueError("gyro data must have shape (n, 3)")
        if len(t) != len(d):
            raise ValueError("timestamp/data length mismatch")
        if len(t) > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(d)):
            raise ValueError("gyro data must be finite (no NaN or inf samples)")
        object.__setattr__(self, "t_us", t)
        object.__setattr__(self, "data", d)

    def __len__(self):
        return len(self.t_us)

    @classmethod
    def from_axes(cls, data: np.ndarray, sample_rate: int = DEFAULT_GYRO_RATE) -> "GyroTrace":
        n = len(data)
        t = np.round(np.arange(n) * 1e6 / sample_rate).astype(np.int64)
        return cls(t_us=t, data=np.asarray(data, dtype=np.float64), sample_rate=sample_rate)


def generate_sine(freq: float, duration: float, amplitude: float,
                  sample_rate: int = DEFAULT_AUDIO_RATE) -> Waveform:
    """Pure sine starting at phase 0."""
    if not 0 <= freq < sample_rate / 2:
        raise FrequencyRangeError(
            f"frequency {freq} Hz outside [0, {sample_rate / 2}) at {sample_rate} Hz")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("amplitude must be within [0, 1]")
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    return Waveform(amplitude * np.sin(2 * np.pi * freq * t), sample_rate)


def generate_chirp(f_start: float, f_end: float, duration: float, amplitude: float,
                   sample_rate: int = DEFAULT_AUDIO_RATE) -> Waveform:
    """Linear up/down chirp with accumulated (continuous) phase."""
    # unlike a steady tone, a sweep may touch Nyquist at a single endpoint
    for f in (f_start, f_end):
        if not 0 <= f <= sample_rate / 2:
            raise FrequencyRangeError(
                f"frequency {f} Hz outside [0, {sample_rate / 2}] at {sample_rate} Hz")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("amplitude must be within [0, 1]")
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    rate = (f_end - f_start) / duration
    # phase(t) = 2*pi * integral of instantaneous frequency
    phase = 2 * np.pi * (f_start * t + 0.5 * rate * t * t)
    return Waveform(amplitude * np.sin(phase), sample_rate)


_WINDOWS = {
    "rect": lambda n: np.ones(n),
    "hann": lambda n: np.hanning(n),
    "hamming": lambda n: np.hamming(n),
}


def _frame_index(n: int, fft_size: int, noverlap: int) -> np.ndarray:
    """Sample indices of every whole frame, shape (frames, fft_size);
    hop = fft_size - noverlap."""
    if not 0 <= noverlap < fft_size:
        raise ConfigError(f"noverlap {noverlap} must be in [0, fft_size={fft_size})")
    if n < fft_size:
        raise ConfigError(f"input of {n} samples shorter than fft_size {fft_size}")
    hop = fft_size - noverlap
    n_frames = (n - fft_size) // hop + 1
    return np.arange(fft_size)[None, :] + hop * np.arange(n_frames)[:, None]


def stft(x: np.ndarray, fft_size: int, noverlap: int, window: str = "rect",
         sample_rate: int = DEFAULT_AUDIO_RATE) -> Spectrogram:
    """Sliding-window magnitude spectra; hop = fft_size - noverlap."""
    x = np.asarray(x, dtype=np.float64)
    if window not in _WINDOWS:
        raise ConfigError(f"unknown window {window!r}; choose from {sorted(_WINDOWS)}")
    frames = x[_frame_index(len(x), fft_size, noverlap)]
    taper = _WINDOWS[window](fft_size)
    mags = np.abs(np.fft.rfft(frames * taper, axis=1))
    freqs = np.fft.rfftfreq(fft_size, d=1.0 / sample_rate)
    times = (fft_size - noverlap) * np.arange(len(frames)) / sample_rate
    return Spectrogram(magnitudes=mags, freqs=freqs, times=times,
                       fft_size=fft_size, noverlap=noverlap, sample_rate=sample_rate)


def magnitude_stream(trace: GyroTrace) -> np.ndarray:
    """Per-sample vector magnitude of a whole trace."""
    return np.sqrt((trace.data ** 2).sum(axis=1))


def moving_average(x: np.ndarray, w: int) -> np.ndarray:
    """Running mean over the last w samples; shrinking window at the head
    so the output length equals the input length."""
    if w < 1:
        raise ValueError("window length must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    if w == 1 or len(x) == 0:
        return x.copy()
    csum = np.cumsum(x)
    out = np.empty_like(x)
    head = min(w, len(x))
    out[:head] = csum[:head] / np.arange(1, head + 1)
    if len(x) > w:
        out[w:] = (csum[w:] - csum[:-w]) / w
    return out


def bin_index(f: float, fft_size: int, sample_rate: int) -> int:
    """Nearest FFT bin for a frequency."""
    if not 0 <= f < sample_rate / 2:
        raise FrequencyRangeError(
            f"frequency {f} Hz outside [0, {sample_rate / 2}) at {sample_rate} Hz")
    return int(round(fft_size * f / sample_rate))


def frame_spectra(x: np.ndarray, fft_size: int, noverlap: int) -> np.ndarray:
    """Complex spectra of mean-removed rectangular frames, shape
    (frames, fft_size//2 + 1); hop = fft_size - noverlap. Linear in x."""
    frames = np.asarray(x, dtype=np.float64)[_frame_index(len(x), fft_size, noverlap)]
    return np.fft.rfft(frames - frames.mean(axis=1, keepdims=True), axis=1)


@lru_cache(maxsize=64)
def _noise_bins(n_bins: int, tone_bins: Tuple[int, ...]) -> np.ndarray:
    """Every bin except DC, bin 1 and the tone bins with two neighbours on
    each side; cached because the channel's sigma search asks up to 150
    times per trace."""
    excluded = {b + d for b in tone_bins for d in (-2, -1, 0, 1, 2)} | {0, 1}
    bins = np.array([b for b in range(n_bins) if b not in excluded], dtype=np.intp)
    bins.flags.writeable = False
    return bins


def _median_inplace(x: np.ndarray) -> float:
    """np.median of a finite, non-empty array; may reorder x. One partition
    about the upper middle element, then the lower middle is the largest
    value before it. np.median partitions about both middles and the end
    (for its NaN check) and costs about four times as much."""
    q = x.reshape(-1)
    m = len(q) // 2
    q.partition(m)
    if len(q) % 2:
        return float(q[m])
    return float((q[:m].max() + q[m]) / 2)


def tone_power(power: np.ndarray, tone_bins: Sequence[int]) -> Tuple[np.ndarray, float]:
    """(per-frame strongest tone-bin power, noise floor) of a power matrix
    from frame_spectra. The floor is the median power of the _noise_bins."""
    tone_bins = tuple(tone_bins)
    noise = power[:, _noise_bins(power.shape[1], tone_bins)]
    return power[:, list(tone_bins)].max(axis=1), _median_inplace(noise)


def active_snr_db(p_sig: np.ndarray, floor: float) -> float:
    """Ratio (dB) of the mean tone power over active frames to the floor. A
    frame is active when its tone power is at least 4x the floor; when no
    frame is, all count. -inf for silence, inf for a tone over a zero floor."""
    if floor <= 0.0:
        if p_sig.max() <= 0.0:
            return float("-inf")
        return float("inf")
    active = p_sig >= 4.0 * floor
    if not np.any(active):
        active = slice(None)
    return float(10.0 * np.log10(np.mean(p_sig[active]) / floor))


def tone_snr_db(x: np.ndarray, freqs: Sequence[float], sample_rate: int,
                fft_size: int = 128, noverlap: int = 96) -> float:
    """Tone-bin SNR (dB) of one stream; see tone_power and active_snr_db."""
    bins = [bin_index(f, fft_size, sample_rate) for f in freqs]
    power = np.abs(frame_spectra(x, fft_size, noverlap)) ** 2
    return active_snr_db(*tone_power(power, bins))
