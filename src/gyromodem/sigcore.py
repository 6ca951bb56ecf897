"""Core DSP primitives: tone/chirp synthesis, smoothing, the one framing
rule, and the one tone-SNR core (frame spectra, tone/floor power,
active-frame dB) that the channel simulator, the receiver and the band sweep
share.

Everything here is a pure function over immutable inputs; no global state.
"""
from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import lru_cache
from typing import Sequence, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

DEFAULT_AUDIO_RATE = 48000
DEFAULT_GYRO_RATE = 500

# the tone-SNR analysis window at the gyro rate, shared by the channel's
# noise calibration, the B-FSK receiver and the band sweep
TONE_FFT_SIZE = 128


class FrequencyRangeError(ValueError):
    """Requested frequency is outside the representable band."""


class ConfigError(ValueError):
    """Inconsistent analysis parameters or a malformed config document."""


def from_dict(cls, doc):
    """Frozen dataclass cls from a JSON object keyed by its field names.
    Absent keys take the dataclass defaults, and a field without one must be
    present; each value is checked against its field's annotation by
    _typed_value."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{cls.__name__}: expected a JSON object, "
                          f"got {type(doc).__name__}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise ConfigError(f"{cls.__name__}: unknown key(s) {', '.join(unknown)}; "
                          f"expected some of {', '.join(names)}")
    missing = [f.name for f in fields(cls) if f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{cls.__name__}: missing required key(s) {', '.join(missing)}")
    hints = get_type_hints(cls)
    return cls(**{k: _typed_value(f"{cls.__name__}.{k}", hints[k], v)
                  for k, v in doc.items()})


def _typed_value(name: str, kind, value):
    """value as a field annotated kind takes it: int, float (an int will
    do), str, Tuple[X, ...], Tuple[X, Y], Optional[X] or a dataclass, loaded
    by from_dict. Lists become tuples; booleans are not numbers, and a float
    must be finite (json.load reads NaN, Infinity and integers past the float
    range)."""
    args = get_args(kind)
    if get_origin(kind) is Union:  # Optional[X]
        return None if value is None else _typed_value(name, args[0], value)
    if get_origin(kind) is tuple:
        if isinstance(value, (list, tuple)):
            items = args[:1] * len(value) if args[-1:] == (Ellipsis,) else args
            if len(items) == len(value):
                return tuple(_typed_value(f"{name}[{i}]", t, v)
                             for i, (t, v) in enumerate(zip(items, value)))
    elif is_dataclass(kind):
        if isinstance(value, dict):
            return from_dict(kind, value)
    elif isinstance(value, bool) and kind in (int, float):
        pass
    elif isinstance(value, (int, float) if kind is float else kind):
        if kind is float and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{name} must be finite, got {value!r}")
        return value
    expected = kind.__name__ if isinstance(kind, type) else str(kind).replace("typing.", "")
    raise ConfigError(f"{name} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class Waveform:
    """Mono audio buffer. Samples are amplitudes in [-1, +1]."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_AUDIO_RATE

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")
        # np.max and np.min propagate NaN, and NaN fails the comparison
        s = self.samples
        if s.size and not (np.max(s) <= 1.0 + 1e-9 and np.min(s) >= -1.0 - 1e-9):
            raise ValueError("waveform samples must be finite and within [-1, +1]")

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


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


def frames(x: np.ndarray, fft_size: int, noverlap: int) -> np.ndarray:
    """Every whole frame of x, shape (frames, fft_size); hop = fft_size -
    noverlap. A read-only view of x's samples, not a copy."""
    if not 0 <= noverlap < fft_size:
        raise ConfigError(f"noverlap {noverlap} must be in [0, fft_size={fft_size})")
    if len(x) < fft_size:
        raise ConfigError(f"input of {len(x)} samples shorter than fft_size {fft_size}")
    windows = np.lib.stride_tricks.sliding_window_view(
        np.asarray(x, dtype=np.float64), fft_size)
    return windows[::fft_size - noverlap]


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


def frame_spectra(x: np.ndarray, fft_size: int) -> np.ndarray:
    """Complex spectra of mean-removed rectangular frames, shape
    (frames, fft_size//2 + 1); the hop is a quarter window. Linear in x."""
    f = frames(x, fft_size, fft_size - fft_size // 4)
    return np.fft.rfft(f - f.mean(axis=1, keepdims=True), axis=1)


@lru_cache(maxsize=64)
def _noise_bins(n_bins: int, tone_bins: Tuple[int, ...]) -> np.ndarray:
    """Every bin except DC, bin 1 and the tone bins with two neighbours on
    each side; cached because the receiver and the channel's sigma search
    ask for the same few bin sets on every trace."""
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

