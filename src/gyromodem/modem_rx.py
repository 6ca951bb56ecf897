"""Batch demodulator: B-FSK preamble search and majority-vote bits, M-FSK
energy onset and probe-matrix matched filter, parity validation."""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import framing
from .sigcore import (DEFAULT_GYRO_RATE, TONE_FFT_SIZE, ConfigError, GyroTrace,
                      active_snr_db, bin_index, frame_spectra, magnitude_stream,
                      moving_average, tone_power)

DEFAULT_SMOOTHING = 4
SYNC_AGREEMENT = 0.75
# mean preamble-bin power must clear the trace noise floor by this factor
# before a sync is accepted; bounds the false-sync rate on pure noise
SYNC_ENERGY_GATE = 4.0


@dataclass(frozen=True)
class DemodConfig:
    """Receiver parameters for a trace at DEFAULT_GYRO_RATE. g_freqs are
    gyro-domain tone frequencies, ascending; two entries select the binary
    sliding-window path."""

    bit_time: float
    g_freqs: Tuple[float, ...]

    def __post_init__(self):
        if self.windows_per_bit < 1:
            raise ConfigError("bit_time too short: less than one window per bit")
        m = len(self.g_freqs)
        if m < 2 or m & (m - 1) or m > 32:
            raise ConfigError("g_freqs count must be a power of two in [2, 32]")
        if any(f >= DEFAULT_GYRO_RATE / 2 for f in self.g_freqs):
            raise ConfigError("gyro tone at/above Nyquist")
        if len(set(self.bins)) != m:
            raise ConfigError("adjacent gyro tones collapse onto one FFT bin")

    @property
    def fft_size(self) -> int:
        # an M-ary grid's tones sit closer than the tone-SNR window's bins
        return TONE_FFT_SIZE if self.order == 2 else 256

    @property
    def hop(self) -> int:
        return self.fft_size // 4

    @property
    def windows_per_bit(self) -> float:
        return DEFAULT_GYRO_RATE * self.bit_time / self.hop

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
        return [bin_index(f, self.fft_size, DEFAULT_GYRO_RATE) for f in self.g_freqs]


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


def _streams(trace: GyroTrace) -> np.ndarray:
    """Smoothed, detrended x/y/z/magnitude streams, shape (4, n)."""
    raw = np.column_stack([trace.data, magnitude_stream(trace)]).T
    return np.array([moving_average(row - row.mean(), DEFAULT_SMOOTHING)
                     for row in raw])


def _window_stats(streams: np.ndarray, cfg: DemodConfig):
    """Per-stream, per-window magnitudes at the tone bins plus the noise
    floor (sigcore.tone_power)."""
    mags, floors = [], []
    for row in streams:
        mag = np.abs(frame_spectra(row, cfg.fft_size))
        floors.append(tone_power(mag ** 2, cfg.bins)[1])
        mags.append(mag[:, cfg.bins])
    return np.array(mags), np.array(floors)  # (4, n_win, M), (4,)


def _slot_runs(centers: np.ndarray, lo, width: float):
    """The windows whose centre lies in [lo, lo + width) are first:stop;
    centers ascend, and lo may be an array of slot starts."""
    return np.searchsorted(centers, lo), np.searchsorted(centers, lo + width)


def _slot_bits(combined: np.ndarray, first: np.ndarray, stop: np.ndarray) -> List[int]:
    """Majority vote of each slot's windows first:stop of combined (n, 2); an
    even split goes to the strictly larger tone sum, to 0 on equal sums."""
    votes = np.concatenate(([0], np.cumsum(combined[:, 1] >= combined[:, 0])))
    ones, n = votes[stop] - votes[first], stop - first
    bits = (2 * ones > n).astype(int)
    for i in np.flatnonzero(2 * ones == n):
        sums = np.cumsum(combined[first[i]:stop[i]], axis=0)[-1]  # in window order
        bits[i] = sums[1] > sums[0]
    return bits.tolist()


def _preamble_scores(ones_before: np.ndarray, power: np.ndarray,
                     floors: np.ndarray, centers: np.ndarray,
                     cfg: DemodConfig) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score the best `1010` preamble alignment ending at every window.
    ones_before[s, i] counts the windows before i on stream s deciding 1, and
    power[s, i] is window i's peak tone power on stream s.

    Returns (score, preamble start time, matching streams), shapes (n_win,),
    (n_win,) and (n_win, streams); score 0 means no stream cleared both the
    agreement threshold and the energy gate at that end window."""
    rows = np.arange(len(centers))
    pre_dur = 4 * cfg.bit_time
    pattern = np.array(framing.SYNC_PATTERN)
    # every end window (rows) by the five candidate starts around the one
    # that ends the preamble at that window
    t0 = centers - pre_dur + cfg.hop / DEFAULT_GYRO_RATE
    cand_t0 = t0[:, None] + np.arange(-2, 3) * cfg.hop / DEFAULT_GYRO_RATE
    # by the four preamble slots, each slot's windows cut at the end window
    slot_lo = cand_t0[..., None] + np.arange(len(pattern)) * cfg.bit_time
    first, stop = _slot_runs(centers, slot_lo, cfg.bit_time)
    stop = np.minimum(stop, rows[:, None, None] + 1)
    n = np.maximum(stop - first, 0)
    ones = ones_before[:, stop] - ones_before[:, first]  # (streams, n_win, 5, 4)
    agree = np.where(pattern == 1, ones, n - ones) / np.maximum(n, 1)
    # a stream must agree at the threshold in every slot, and every slot
    # must hold a window
    ok = (agree >= SYNC_AGREEMENT).all(axis=3) & (n > 0).all(axis=2)
    # energy gate: the mean peak tone power over the preamble must stand out
    # of the stream's noise floor (floors are medians of powers, never < 0)
    lo, hi = _slot_runs(centers, cand_t0, pre_dur)
    run = np.pad(np.cumsum(power, axis=1), ((0, 0), (1, 0)))
    p = (run[:, hi] - run[:, lo]) / np.maximum(hi - lo, 1)
    ok &= (p >= SYNC_ENERGY_GATE * floors[:, None, None]) & (p > 0)
    # summed slot by slot, then over the passing streams in order
    score = np.cumsum(agree, axis=3)[..., -1]
    total = np.cumsum(np.where(ok, score, 0.0), axis=0)[-1]
    best = total.argmax(axis=1)  # the first of the best candidates
    return total[rows, best], cand_t0[rows, best], ok[:, rows, best].T


def _first_at_or_after(windows: np.ndarray, k: int) -> Optional[int]:
    """The first of the ascending window indices at or after k; None when
    there is none. Both receivers walk their trace by this rule."""
    i = int(np.searchsorted(windows, k))
    return int(windows[i]) if i < len(windows) else None


def _binary_demod(mags: np.ndarray, floors: np.ndarray, centers: np.ndarray,
                  cfg: DemodConfig, trace: GyroTrace) -> RxReport:
    report = RxReport()
    # 0 only when the f0 magnitude strictly dominates; ties decode as 1
    decisions = mags[:, :, 1] >= mags[:, :, 0]
    ones_before = np.pad(np.cumsum(decisions, axis=1), ((0, 0), (1, 0)))
    score, starts, matched = _preamble_scores(ones_before, mags.max(axis=2) ** 2,
                                              floors, centers, cfg)
    fired = np.flatnonzero(score > 0)
    n4 = max(int(round(4 * cfg.windows_per_bit)), 4)
    # a marginal stream can clear the threshold up to a bit early; look one
    # bit-width further and keep the first best-aligned candidate
    lookahead = int(np.ceil(cfg.windows_per_bit))
    frame_dur = framing.FRAME_BITS * cfg.bit_time
    payload_lo = np.arange(4, framing.FRAME_BITS) * cfg.bit_time
    k = _first_at_or_after(fired, n4 - 1)
    while k is not None:
        k += int(score[k:k + lookahead + 1].argmax())
        t0, axes = starts[k], np.flatnonzero(matched[k])
        report.sync_count += 1
        first, stop = _slot_runs(centers, t0 + payload_lo, cfg.bit_time)
        if (stop == first).any():
            report.lost_sync_count += 1
            report.diagnostics.append(
                f"frame at t={t0:.3f}s truncated by end of trace")
            break
        combined = mags[axes, first[0]:stop[-1]].sum(axis=0)  # (n, 2)
        bits = _slot_bits(combined, first - first[0], stop - first[0])
        payload, valid = framing.decode_frame(list(framing.SYNC_PATTERN) + bits)
        snr = _frame_snr(trace, cfg, t0, frame_dur)
        report.frames.append(RxFrame(payload, valid, snr, t0))
        # resume scanning after this frame
        k = _first_at_or_after(
            fired, int(np.searchsorted(centers, t0 + frame_dur)) + n4 - 1)
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
    gate = SYNC_ENERGY_GATE * floor.max()
    # filter sidelobes leak a weak precursor ahead of the true onset; demand
    # a sizable fraction of the typical in-frame window power, not just a
    # clear noise floor
    hot = pmax[pmax > gate]
    thresh = max(gate, 0.1 * float(np.median(hot))) if len(hot) else gate
    active = pmax > thresh
    # long enough for any symbol slot after rounding its ends to samples
    probe = _tone_probe(cfg.g_freqs, DEFAULT_GYRO_RATE,
                        int(np.ceil(cfg.symbol_time * DEFAULT_GYRO_RATE)) + 1)
    onsets = np.flatnonzero(active)
    k = _first_at_or_after(onsets, 0)
    while k is not None:
        # onset: back up to the window start, demodulate one frame
        t0 = centers[k] - cfg.fft_size / (2 * DEFAULT_GYRO_RATE)
        report.sync_count += 1
        end_sample = int(round((t0 + frame_dur) * DEFAULT_GYRO_RATE))
        if end_sample > streams.shape[1]:
            report.lost_sync_count += 1
            report.diagnostics.append(
                f"frame at t={t0:.3f}s truncated by end of trace")
            break
        # refine onset over a grid of window hops, scoring the strongest tone
        # on the strongest stream summed over the slots in order; noise ahead
        # of the frame can fire the onset many hops early, so keep stepping
        # forward while the best candidate is the last one tried
        best_delta, best_e, best_energies, delta = 0, -1.0, None, -5
        while delta <= 3 or best_delta == delta - 1:
            energies = _slot_energies(
                streams, t0 + delta * cfg.hop / DEFAULT_GYRO_RATE, n_symbols, cfg, probe)
            e = -1.0 if energies is None else np.cumsum(energies.max(axis=(1, 2)))[-1]
            if e > best_e:
                best_delta, best_e, best_energies = delta, e, energies
            delta += 1
        best_t0 = t0 + best_delta * cfg.hop / DEFAULT_GYRO_RATE
        bits: List[int] = []
        for sym in best_energies.sum(axis=1).argmax(axis=1):
            bits.extend((sym >> (b - 1 - i)) & 1 for i in range(b))
        payload, valid = framing.decode_frame(bits[:framing.FRAME_BITS])
        snr = _frame_snr(trace, cfg, best_t0, frame_dur)
        report.frames.append(RxFrame(payload, valid, snr, best_t0))
        k = _first_at_or_after(onsets, int(np.searchsorted(
            centers, best_t0 + frame_dur + cfg.symbol_time / 4)))
    return report


def _slot_energies(streams: np.ndarray, t0: float, n_symbols: int,
                   cfg: DemodConfig, probe: np.ndarray) -> Optional[np.ndarray]:
    """_tone_energies over each of n_symbols symbol slots from t0, shape
    (n_symbols, n_streams, M); None when a slot falls outside the trace."""
    bounds = [int(round((t0 + s * cfg.symbol_time) * DEFAULT_GYRO_RATE))
              for s in range(n_symbols + 1)]
    if bounds[0] < 0 or bounds[-1] > streams.shape[1]:
        return None
    return np.array([_tone_energies(streams, start, stop, probe)
                     for start, stop in zip(bounds, bounds[1:])])


def _frame_snr(trace: GyroTrace, cfg: DemodConfig, t0: float, dur: float) -> float:
    start = max(int(t0 * DEFAULT_GYRO_RATE), 0)
    stop = min(int((t0 + dur) * DEFAULT_GYRO_RATE), len(trace))
    if stop - start < cfg.fft_size:
        start, stop = 0, len(trace)
    seg = GyroTrace(trace.t_us[start:stop], trace.data[start:stop], DEFAULT_GYRO_RATE)
    return measure_snr(seg, cfg.g_freqs, cfg)


def measure_snr(trace: GyroTrace, g_freqs: Sequence[float],
                cfg: Optional[DemodConfig] = None) -> float:
    """Gyro-bin SNR estimate (sigcore.active_snr_db of each detrended axis):
    best axis wins. -inf for an all-zero trace."""
    fft_size = cfg.fft_size if cfg else TONE_FFT_SIZE
    bins = [bin_index(f, fft_size, trace.sample_rate) for f in g_freqs]
    powers = (np.abs(frame_spectra(x - x.mean(), fft_size)) ** 2 for x in trace.data.T)
    return max(active_snr_db(*tone_power(p, bins)) for p in powers)


def demodulate_stream(trace: GyroTrace, cfg: DemodConfig) -> RxReport:
    """Run the receiver over a whole trace and report every decoded frame."""
    if trace.sample_rate != DEFAULT_GYRO_RATE:
        raise ConfigError(
            f"trace rate {trace.sample_rate} != receiver rate {DEFAULT_GYRO_RATE}")
    report = RxReport()
    frame_samples = framing.FRAME_BITS * cfg.bit_time * DEFAULT_GYRO_RATE
    if len(trace) < cfg.fft_size or len(trace) < frame_samples:
        report.diagnostics.append(
            f"trace of {len(trace)} samples shorter than one frame; nothing decoded")
        return report
    streams = _streams(trace)
    mags, floors = _window_stats(streams, cfg)
    n_win = mags.shape[1]
    centers = (np.arange(n_win) * cfg.hop + cfg.fft_size / 2) / DEFAULT_GYRO_RATE
    if cfg.order == 2:
        return _binary_demod(mags, floors, centers, cfg, trace)
    # matched filtering must see the unsmoothed axes: the smoothing moving
    # average has spectral nulls at multiples of DEFAULT_GYRO_RATE /
    # DEFAULT_SMOOTHING, which can land on the upper tones of a wide M-ary grid
    raw = trace.data.T - trace.data.T.mean(axis=1, keepdims=True)
    return _mary_demod(raw, mags, floors, centers, cfg, trace)


def report_to_csv(report: RxReport, destination) -> None:
    with Path(destination).open("w", newline="") as fp:
        fp.write("frame_index,payload_bits,parity_valid,snr_db\n")
        for i, fr in enumerate(report.frames):
            bits = "".join(str(b) for b in fr.payload)
            fp.write(f"{i},{bits},{int(fr.parity_valid)},{fr.snr_db:.3f}\n")
