"""FSK transmitter: map bits to resonance-band tones and synthesize audio."""
from __future__ import annotations

import math
import wave
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence, Tuple

import numpy as np

from .framing import encode_frame
from .sigcore import DEFAULT_AUDIO_RATE, FrequencyRangeError, ToneSegment, Waveform

DEFAULT_AMPLITUDE = 0.20  # 20% volume
DEFAULT_FRAME_GAP = 0.5   # seconds of silence between frames


@dataclass(frozen=True)
class FskConfig:
    """M-ary FSK parameters. bit_time is seconds per data bit; a symbol
    carries log2(order) bits and lasts bit_time * log2(order)."""

    tone_freqs: Tuple[float, ...]
    bit_time: float
    amplitude: float = DEFAULT_AMPLITUDE

    def __post_init__(self):
        tones = tuple(float(f) for f in self.tone_freqs)
        object.__setattr__(self, "tone_freqs", tones)
        m = len(tones)
        if m < 2 or m & (m - 1):
            raise ValueError(f"FSK order must be a power of two >= 2, got {m}")
        if m > 32:
            raise ValueError("FSK order above 32 is not supported")
        if any(b >= a for a, b in zip(tones[1:], tones)):
            raise ValueError("tone frequencies must be strictly ascending")
        if self.bit_time <= 0:
            raise ValueError("bit_time must be positive")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must be within [0, 1]")

    @property
    def order(self) -> int:
        return len(self.tone_freqs)

    @property
    def bits_per_symbol(self) -> int:
        return int(math.log2(self.order))

    @property
    def symbol_time(self) -> float:
        return self.bit_time * self.bits_per_symbol


def uniform_tones(band_lo: float, band_hi: float, order: int) -> Tuple[float, ...]:
    """Uniformly spaced tones across a band, endpoints inclusive."""
    return tuple(np.linspace(band_lo, band_hi, order))


def bfsk_config(f0: float, f1: float, bit_time: float,
                amplitude: float = DEFAULT_AMPLITUDE) -> FskConfig:
    return FskConfig(tone_freqs=(f0, f1), bit_time=bit_time, amplitude=amplitude)


def bits_to_symbols(bits: Sequence[int], bits_per_symbol: int) -> Tuple[int, ...]:
    if len(bits) % bits_per_symbol:
        raise ValueError(
            f"bit count {len(bits)} not divisible by {bits_per_symbol}; pad first")
    symbols = []
    for i in range(0, len(bits), bits_per_symbol):
        value = 0
        for b in bits[i:i + bits_per_symbol]:
            value = (value << 1) | (int(b) & 1)
        symbols.append(value)
    return tuple(symbols)


def _synthesise(frames: Sequence[Sequence[int]], cfg: FskConfig, gap_len: int,
                sample_rate: int) -> Waveform:
    """Frames of symbols, one tone segment per symbol, joined by gap_len
    samples of silence, as a tone-segment waveform. Within a frame the phase
    accumulates, which keeps symbol switches click-free; it is carried as an
    exact Fraction, and each frame's first sample has phase f / sample_rate."""
    nyquist = sample_rate / 2
    if cfg.tone_freqs[-1] >= nyquist:
        raise FrequencyRangeError(
            f"tone {cfg.tone_freqs[-1]} Hz at/above Nyquist ({nyquist} Hz)")
    seg_len = int(round(cfg.symbol_time * sample_rate))
    tones, pos = [], 0
    for symbols in frames:
        cycles = Fraction(0)
        for s in symbols:
            f = Fraction(cfg.tone_freqs[s]) / sample_rate
            tones.append(ToneSegment(pos, seg_len, cfg.tone_freqs[s], cycles + f,
                                     cfg.amplitude))
            cycles = (cycles + f * seg_len) % 1
            pos += seg_len
        pos += gap_len
    return Waveform.from_tones(tones, max(pos - gap_len, 0), sample_rate)


def modulate(bits: Sequence[int], cfg: FskConfig,
             sample_rate: int = DEFAULT_AUDIO_RATE) -> Waveform:
    """Phase-continuous M-FSK synthesis; one tone segment per symbol."""
    return _synthesise([bits_to_symbols(bits, cfg.bits_per_symbol)], cfg, 0, sample_rate)


def frame_bits_padded(payload: Sequence[int], cfg: FskConfig) -> list:
    """Encoded 17-bit frame, zero-padded up to a whole number of symbols."""
    bits = list(encode_frame(payload))
    b = cfg.bits_per_symbol
    if len(bits) % b:
        bits += [0] * (b - len(bits) % b)
    return bits


def transmit_frames(payloads: Sequence[Sequence[int]], cfg: FskConfig,
                    gap: float = DEFAULT_FRAME_GAP,
                    sample_rate: int = DEFAULT_AUDIO_RATE) -> Waveform:
    """Encode each payload into a frame, modulate, and join with silence gaps."""
    if gap < 0:
        raise ValueError("gap must be non-negative")
    frames = [bits_to_symbols(frame_bits_padded(p, cfg), cfg.bits_per_symbol)
              for p in payloads]
    return _synthesise(frames, cfg, int(round(gap * sample_rate)), sample_rate)


def export_wav(w: Waveform, destination) -> None:
    """Write 16-bit signed PCM mono WAV; round half away from zero."""
    if len(w) == 0:
        raise ValueError("refusing to export an empty waveform")
    scaled = w.samples * 32767.0
    pcm = (np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)).astype(np.int16)
    path = Path(destination)
    try:
        with wave.open(str(path), "wb") as fp:
            fp.setnchannels(1)
            fp.setsampwidth(2)
            fp.setframerate(w.sample_rate)
            fp.writeframes(pcm.tobytes())
    except OSError as exc:
        raise OSError(f"cannot write WAV to {path}: {exc}") from exc


def import_wav(source) -> Waveform:
    """Read a mono 16-bit PCM WAV back into a waveform."""
    path = Path(source)
    try:
        with wave.open(str(path), "rb") as fp:
            if fp.getnchannels() != 1 or fp.getsampwidth() != 2:
                raise ValueError(f"{path}: expected mono 16-bit PCM")
            rate = fp.getframerate()
            raw = fp.readframes(fp.getnframes())
    except OSError as exc:
        raise OSError(f"cannot read WAV from {path}: {exc}") from exc
    pcm = np.frombuffer(raw, dtype=np.int16).astype(np.float64)
    # -32768 codes slightly past full scale; clamp so the invariant holds
    return Waveform(np.clip(pcm / 32767.0, -1.0, 1.0), rate)
