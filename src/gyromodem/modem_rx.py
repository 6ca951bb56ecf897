"""Batch demodulator: B-FSK preamble search and majority-vote bits, M-FSK
energy onset and probe-matrix matched filter, parity validation."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import framing
from .sigcore import (DEFAULT_GYRO_RATE, ConfigError, GyroTrace, bin_index,
                      frame_spectra, magnitude_stream, moving_average,
                      tone_power, tone_snr_db)

STREAM_NAMES = ("x", "y", "z", "mag")

DEFAULT_FFT_SIZE = 128
DEFAULT_NOVERLAP = 96
DEFAULT_SMOOTHING = 4
SYNC_AGREEMENT = 0.75
# mean preamble-bin power must clear the trace noise floor by this factor
# before a sync is accepted; bounds the false-sync rate on pure noise
SYNC_ENERGY_GATE = 4.0


@dataclass(frozen=True)
class DemodConfig:
    """Receiver parameters. g_freqs are gyro-domain tone frequencies,
    ascending; two entries select the binary sliding-window path."""

    bit_time: float
    g_freqs: Tuple[float, ...]
    sample_rate: int = DEFAULT_GYRO_RATE
    fft_size: int = DEFAULT_FFT_SIZE
    noverlap: int = DEFAULT_NOVERLAP
    w: int = DEFAULT_SMOOTHING
    sync_threshold: float = SYNC_AGREEMENT
    energy_gate: float = SYNC_ENERGY_GATE

    def __post_init__(self):
        if not 0 <= self.noverlap < self.fft_size:
            raise ConfigError("noverlap must be in [0, fft_size)")
        if self.windows_per_bit < 1:
            raise ConfigError("bit_time too short: less than one window per bit")
        m = len(self.g_freqs)
        if m < 2 or m & (m - 1) or m > 32:
            raise ConfigError("g_freqs count must be a power of two in [2, 32]")
        if any(f >= self.sample_rate / 2 for f in self.g_freqs):
            raise ConfigError("gyro tone at/above Nyquist")
        bins = [bin_index(f, self.fft_size, self.sample_rate) for f in self.g_freqs]
        if len(set(bins)) != len(bins):
            raise ConfigError(
                "adjacent gyro tones collapse onto one FFT bin; raise fft_size")

    @property
    def hop(self) -> int:
        return self.fft_size - self.noverlap

    @property
    def windows_per_bit(self) -> float:
        return self.sample_rate * self.bit_time / self.hop

    @property
    def order(self) -> int:
        return len(self.g_freqs)

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.order))

    @property
    def symbol_time(self) -> float:
        return self.bit_time * self.bits_per_symbol

    @property
    def bins(self) -> List[int]:
        return [bin_index(f, self.fft_size, self.sample_rate) for f in self.g_freqs]


@dataclass
class RxFrame:
    payload: Tuple[int, ...]
    parity_valid: bool
    snr_db: float
    start_time: float


@dataclass
class RxReport:
    frames: List[RxFrame] = field(default_factory=list)
    sync_count: int = 0
    lost_sync_count: int = 0
    diagnostics: List[str] = field(default_factory=list)


def decide_bit(window_symbols: Sequence[int],
               window_magnitudes: Optional[Sequence[Sequence[float]]] = None) -> int:
    """Majority vote over per-window symbol decisions; ties break toward the
    symbol with the larger summed bin magnitude."""
    symbols = list(window_symbols)
    if not symbols:
        raise ValueError("decide_bit needs at least one window decision")
    counts: Dict[int, int] = {}
    for s in symbols:
        counts[s] = counts.get(s, 0) + 1
    best = max(counts.values())
    tied = sorted(s for s, c in counts.items() if c == best)
    if len(tied) == 1 or window_magnitudes is None:
        return tied[0]
    sums = {s: 0.0 for s in tied}
    for mags in window_magnitudes:
        for s in tied:
            sums[s] += float(mags[s])
    return max(tied, key=lambda s: sums[s])


def _streams(trace: GyroTrace, w: int) -> np.ndarray:
    """Smoothed, detrended x/y/z/magnitude streams, shape (4, n)."""
    mag = magnitude_stream(trace)
    raw = np.column_stack([trace.data, mag]).T
    out = np.empty_like(raw)
    for i, row in enumerate(raw):
        out[i] = moving_average(row - row.mean(), w)
    return out


def _window_stats(streams: np.ndarray, cfg: DemodConfig):
    """Per-stream, per-window magnitudes at the tone bins plus the noise
    floor (sigcore.tone_power)."""
    mags, floors = [], []
    for row in streams:
        mag = np.abs(frame_spectra(row, cfg.fft_size, cfg.noverlap))
        floors.append(tone_power(mag ** 2, cfg.bins)[1])
        mags.append(mag[:, cfg.bins])
    return np.array(mags), np.array(floors)  # (4, n_win, M), (4,)


def _slot_windows(t0: float, slot: int, bit_time: float, centers: np.ndarray) -> np.ndarray:
    lo = t0 + slot * bit_time
    return np.nonzero((centers >= lo) & (centers < lo + bit_time))[0]


def _sync_candidate(decisions: np.ndarray, magnitudes: np.ndarray,
                    floors: np.ndarray, centers: np.ndarray, end_idx: int,
                    cfg: DemodConfig) -> Tuple[float, float, List[int]]:
    """Score the best `1010` preamble alignment ending at window end_idx.

    Returns (score, preamble start time, matching stream indices); score 0
    with no matches means nothing cleared the agreement threshold."""
    pre_dur = 4 * cfg.bit_time
    t_end = centers[end_idx]
    t0 = t_end - pre_dur + cfg.hop / cfg.sample_rate
    best: Tuple[float, float, List[int]] = (0.0, t0, [])
    pattern = np.array(framing.SYNC_PATTERN)
    # the five candidate starts (rows) by the four preamble slots (columns);
    # centers ascend, so each slot's windows (_slot_windows) are the run
    # [first centre >= lo, first centre >= lo + bit_time), cut at end_idx
    cand_t0 = t0 + np.arange(-2, 3) * cfg.hop / cfg.sample_rate
    lo = cand_t0[:, None] + np.arange(len(pattern)) * cfg.bit_time
    first = np.searchsorted(centers, lo)
    stop = np.minimum(np.searchsorted(centers, lo + cfg.bit_time), end_idx + 1)
    n = np.maximum(stop - first, 0)
    # windows deciding 1 in each run, from a running count per stream
    ones_before = np.zeros((decisions.shape[0], decisions.shape[1] + 1), dtype=np.int64)
    np.cumsum(decisions, axis=1, out=ones_before[:, 1:])
    ones = ones_before[:, stop] - ones_before[:, first]  # (streams, 5, 4)
    agree = np.where(pattern == 1, ones, n - ones) / np.maximum(n, 1)
    # a stream must agree at the threshold in every slot, and every slot
    # must hold a window
    ok = (agree >= cfg.sync_threshold).all(axis=2) & (n > 0).all(axis=1)
    score = agree[..., 0]
    for slot in range(1, len(pattern)):
        score = score + agree[..., slot]
    for c in range(len(cand_t0)):
        if not ok[:, c].any():
            continue
        # energy gate: the preamble must actually stand out of the noise
        span = np.nonzero((centers >= cand_t0[c]) &
                          (centers < cand_t0[c] + pre_dur))[0]
        matched, score_total = [], 0.0
        for s in np.flatnonzero(ok[:, c]):
            p = (magnitudes[s, span].max(axis=1) ** 2).mean()
            if floors[s] > 0 and p < cfg.energy_gate * floors[s]:
                continue
            if floors[s] <= 0 and p <= 0:
                continue
            matched.append(int(s))
            score_total += float(score[s, c])
        if matched and score_total > best[0]:
            best = (score_total, cand_t0[c], matched)
    return best


def _binary_demod(mags: np.ndarray, floors: np.ndarray, centers: np.ndarray,
                  cfg: DemodConfig, trace: GyroTrace) -> RxReport:
    report = RxReport()
    # 0 only when the f0 magnitude strictly dominates; ties decode as 1
    decisions = (mags[:, :, 1] >= mags[:, :, 0]).astype(np.int8)
    n_win = mags.shape[1]
    n4 = max(int(round(4 * cfg.windows_per_bit)), 4)
    frame_dur = framing.FRAME_BITS * cfg.bit_time
    k = n4 - 1
    while k < n_win:
        score, t0, axes = _sync_candidate(decisions, mags, floors, centers,
                                          k, cfg)
        if not axes:
            k += 1
            continue
        # a marginal stream can clear the threshold up to a bit early; scan
        # one bit-width further and keep the best-aligned candidate
        lookahead = int(np.ceil(cfg.windows_per_bit))
        for k2 in range(k + 1, min(k + 1 + lookahead, n_win)):
            s2, t2, a2 = _sync_candidate(decisions, mags, floors, centers,
                                         k2, cfg)
            if a2 and s2 > score:
                score, t0, axes = s2, t2, a2
        report.sync_count += 1
        bits: List[int] = []
        truncated = False
        for slot in range(4, framing.FRAME_BITS):
            idx = _slot_windows(t0, slot, cfg.bit_time, centers)
            if len(idx) == 0:
                truncated = True
                break
            combined = mags[axes][:, idx, :].sum(axis=0)  # (n_idx, 2)
            win_sym = (combined[:, 1] >= combined[:, 0]).astype(int)
            bits.append(decide_bit(win_sym, combined))
        if truncated:
            report.lost_sync_count += 1
            report.diagnostics.append(
                f"frame at t={t0:.3f}s truncated by end of trace")
            break
        frame_bits = list(framing.SYNC_PATTERN) + bits
        payload, valid = framing.decode_frame(frame_bits)
        snr = _frame_snr(trace, cfg, t0, frame_dur)
        report.frames.append(RxFrame(payload, valid, snr, t0))
        # resume scanning after this frame
        k = int(np.searchsorted(centers, t0 + frame_dur)) + n4 - 1
    return report


def _tone_probe(g_freqs: Sequence[float], rate: float, n: int) -> np.ndarray:
    """Matched-filter probe, shape (n, M): exp(-2j*pi*g*k/rate), k < n."""
    return np.exp(-2j * np.pi * np.asarray(g_freqs) * np.arange(n)[:, None] / rate)


def _tone_energies(streams: np.ndarray, start: int, stop: int,
                   probe: np.ndarray) -> np.ndarray:
    """Noncoherent matched-filter energy of every tone on every stream over
    samples [start, stop), phase-referenced to start; shape (n_streams, M).
    probe comes from _tone_probe and has at least stop - start rows."""
    # numpy runs real @ complex outside BLAS; a real matmul with the probe's
    # interleaved (re, im) view, read back as complex, is the same sum
    re_im = streams[:, start:stop] @ probe[:stop - start].view(np.float64)
    return np.abs(re_im.view(np.complex128)) ** 2


def _mary_demod(streams: np.ndarray, mags: np.ndarray, floors: np.ndarray,
                centers: np.ndarray, cfg: DemodConfig, trace: GyroTrace) -> RxReport:
    """M-ary path: frame onset by in-band energy, then a noncoherent matched
    filter per tone over each whole symbol slot."""
    report = RxReport()
    b = cfg.bits_per_symbol
    n_symbols = -(-framing.FRAME_BITS // b)
    frame_dur = n_symbols * cfg.symbol_time
    power = (mags.max(axis=2) ** 2)  # (4, n_win)
    floor = np.maximum(floors, 1e-30)[:, None]
    pmax = power.max(axis=0)
    gate = cfg.energy_gate * floor.max()
    # filter sidelobes leak a weak precursor ahead of the true onset; demand
    # a sizable fraction of the typical in-frame window power, not just a
    # clear noise floor
    hot = pmax[pmax > gate]
    thresh = max(gate, 0.1 * float(np.median(hot))) if len(hot) else gate
    active = pmax > thresh
    rate = cfg.sample_rate
    # long enough for any symbol slot after rounding its ends to samples
    probe = _tone_probe(cfg.g_freqs, rate,
                        int(np.ceil(cfg.symbol_time * rate)) + 1)
    k = 0
    n_win = len(centers)
    while k < n_win:
        if not active[k]:
            k += 1
            continue
        # onset: back up to the window start, demodulate one frame
        t0 = centers[k] - cfg.fft_size / (2 * rate)
        report.sync_count += 1
        end_sample = int(round((t0 + frame_dur) * rate))
        if end_sample > streams.shape[1]:
            report.lost_sync_count += 1
            report.diagnostics.append(
                f"frame at t={t0:.3f}s truncated by end of trace")
            break
        # refine onset over a grid of window hops; noise ahead of the frame
        # can fire the onset many hops early, so keep stepping forward while
        # the best candidate is the last one tried
        best_delta, best_e, delta = 0, -1.0, -5
        while delta <= 3 or best_delta == delta - 1:
            e = _frame_matched_energy(streams, t0 + delta * cfg.hop / rate,
                                      n_symbols, cfg, probe)
            if e > best_e:
                best_delta, best_e = delta, e
            delta += 1
        best_t0 = t0 + best_delta * cfg.hop / rate
        symbols = []
        for s in range(n_symbols):
            start = int(round((best_t0 + s * cfg.symbol_time) * rate))
            stop = int(round((best_t0 + (s + 1) * cfg.symbol_time) * rate))
            start = max(start, 0)
            stop = min(stop, streams.shape[1])
            energies = _tone_energies(streams, start, stop, probe).sum(axis=0)
            symbols.append(int(np.argmax(energies)))
        bits: List[int] = []
        for sym in symbols:
            bits.extend((sym >> (b - 1 - i)) & 1 for i in range(b))
        payload, valid = framing.decode_frame(bits[:framing.FRAME_BITS])
        snr = _frame_snr(trace, cfg, best_t0, frame_dur)
        report.frames.append(RxFrame(payload, valid, snr, best_t0))
        k = int(np.searchsorted(centers, best_t0 + frame_dur + cfg.symbol_time / 4))
    return report


def _frame_matched_energy(streams: np.ndarray, t0: float, n_symbols: int,
                          cfg: DemodConfig, probe: np.ndarray) -> float:
    """Sum over symbol slots of the strongest tone on the strongest stream;
    -1 when a slot falls outside the trace."""
    rate = cfg.sample_rate
    total = 0.0
    for s in range(n_symbols):
        start = int(round((t0 + s * cfg.symbol_time) * rate))
        stop = int(round((t0 + (s + 1) * cfg.symbol_time) * rate))
        if start < 0 or stop > streams.shape[1]:
            return -1.0
        total += float(_tone_energies(streams, start, stop, probe).max())
    return total


def _frame_snr(trace: GyroTrace, cfg: DemodConfig, t0: float, dur: float) -> float:
    rate = cfg.sample_rate
    start = max(int(t0 * rate), 0)
    stop = min(int((t0 + dur) * rate), len(trace))
    if stop - start < cfg.fft_size:
        start, stop = 0, len(trace)
    seg = GyroTrace(trace.t_us[start:stop], trace.data[start:stop], rate)
    return measure_snr(seg, cfg.g_freqs, cfg)


def measure_snr(trace: GyroTrace, g_freqs: Sequence[float],
                cfg: Optional[DemodConfig] = None) -> float:
    """Gyro-bin SNR estimate: best axis wins. -inf for an all-zero trace."""
    fft_size = cfg.fft_size if cfg else DEFAULT_FFT_SIZE
    noverlap = cfg.noverlap if cfg else DEFAULT_NOVERLAP
    rate = cfg.sample_rate if cfg else trace.sample_rate
    best = float("-inf")
    for ax in range(3):
        x = trace.data[:, ax]
        x = x - x.mean()
        best = max(best, tone_snr_db(x, g_freqs, rate, fft_size, noverlap))
    return best


def demodulate_stream(trace: GyroTrace, cfg: DemodConfig) -> RxReport:
    """Run the receiver over a whole trace and report every decoded frame."""
    if trace.sample_rate != cfg.sample_rate:
        raise ConfigError(
            f"trace rate {trace.sample_rate} != receiver rate {cfg.sample_rate}")
    report = RxReport()
    frame_samples = framing.FRAME_BITS * cfg.bit_time * cfg.sample_rate
    if len(trace) < cfg.fft_size or len(trace) < frame_samples:
        report.diagnostics.append(
            f"trace of {len(trace)} samples shorter than one frame; nothing decoded")
        return report
    streams = _streams(trace, cfg.w)
    mags, floors = _window_stats(streams, cfg)
    n_win = mags.shape[1]
    centers = (np.arange(n_win) * cfg.hop + cfg.fft_size / 2) / cfg.sample_rate
    if cfg.order == 2:
        return _binary_demod(mags, floors, centers, cfg, trace)
    # matched filtering must see the unsmoothed axes: the length-w moving
    # average has spectral nulls at sample_rate/w multiples, which can land
    # on the upper tones of a wide M-ary grid
    raw = trace.data.T - trace.data.T.mean(axis=1, keepdims=True)
    return _mary_demod(raw, mags, floors, centers, cfg, trace)


def report_to_csv(report: RxReport, destination) -> None:
    from pathlib import Path
    with Path(destination).open("w", newline="") as fp:
        fp.write("frame_index,payload_bits,parity_valid,snr_db\n")
        for i, fr in enumerate(report.frames):
            bits = "".join(str(b) for b in fr.payload)
            fp.write(f"{i},{bits},{int(fr.parity_valid)},{fr.snr_db:.3f}\n")
