"""Resonance-band survey: recover a device's acoustic response band from a
gyro trace recorded against a slow linear up-chirp."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .sigcore import TONE_FFT_SIZE, GyroTrace, frame_spectra

DEFAULT_THRESHOLD_DB = 10.0


@dataclass(frozen=True)
class SweepResult:
    """Detected band (acoustic Hz) plus the full response curve for manual
    inspection. found is False when nothing cleared the threshold."""

    found: bool
    band_lo: Optional[float]
    band_hi: Optional[float]
    peak_response_freq: Optional[float]
    curve_freqs: np.ndarray    # acoustic Hz per analysis frame
    curve_db: np.ndarray       # gyro-band energy per frame, dB over the floor


def find_resonance_band(trace: GyroTrace, scan: Tuple[float, float, float],
                        threshold_db: float = DEFAULT_THRESHOLD_DB,
                        chirp_start: float = 0.0) -> SweepResult:
    """Map STFT frames to the chirp's instantaneous frequency and keep the
    longest contiguous run of frames at least threshold_db over the median
    frame energy. chirp_start is the trace time (s) where the sweep begins,
    e.g. the channel simulator's silence padding."""
    if threshold_db <= 0:
        raise ValueError("threshold_db must be positive")
    f_start, f_end, duration = scan
    rate = trace.sample_rate
    energy = None
    for ax in range(3):
        x = trace.data[:, ax]
        mag = np.abs(frame_spectra(x - x.mean(), TONE_FFT_SIZE))
        p = (mag[:, 1:] ** 2).sum(axis=1)  # skip DC
        energy = p if energy is None else energy + p
    # frame centers
    hop = TONE_FFT_SIZE // 4
    times = hop * np.arange(len(energy)) / rate + TONE_FFT_SIZE / (2 * rate)
    chirp_rate = (f_end - f_start) / duration
    freqs = f_start + chirp_rate * (times - chirp_start)
    floor = float(np.median(energy))
    if floor <= 0:
        floor = float(np.max(energy)) * 1e-12 or 1e-30
    level_db = 10 * np.log10(np.maximum(energy, floor * 1e-12) / floor)
    hot = level_db >= threshold_db
    if not np.any(hot):
        return SweepResult(False, None, None, None, freqs, level_db)

    # longest contiguous run of in-response frames
    best_len, best_start = 0, 0
    run_start = None
    for i, flag in enumerate(np.append(hot, False)):
        if flag and run_start is None:
            run_start = i
        elif not flag and run_start is not None:
            if i - run_start > best_len:
                best_len, best_start = i - run_start, run_start
            run_start = None
    run = slice(best_start, best_start + best_len)
    peak = freqs[run][np.argmax(energy[run])]
    return SweepResult(True, float(freqs[run.start]), float(freqs[run.stop - 1]),
                       float(peak), freqs, level_db)


def write_sweep_csv(result: SweepResult, destination) -> None:
    with Path(destination).open("w", newline="") as fp:
        fp.write("acoustic_hz,response_db\n")
        for f, db in zip(result.curve_freqs, result.curve_db):
            fp.write(f"{f:.3f},{db:.3f}\n")
