"""Batch demodulator: sync detection, B-FSK slot votes, M-FSK matched
filter, SNR estimation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyromodem import modem_tx
from gyromodem.channel import (PAD_SECONDS, ChannelCondition, GyroTrace, apply_channel,
                               get_profile)
from gyromodem.framing import FRAME_BITS, SYNC_PATTERN, decode_frame
from gyromodem.harness import demod_config_for
from gyromodem.modem_rx import (
    SYNC_AGREEMENT,
    SYNC_ENERGY_GATE,
    DemodConfig,
    RxFrame,
    RxReport,
    _binary_demod,
    _frame_snr,
    _mary_demod,
    _slot_bits,
    _streams,
    _sync_candidate,
    _tone_energies,
    _tone_probe,
    _window_stats,
    demodulate_stream,
    measure_snr,
)
from gyromodem.sigcore import (DEFAULT_GYRO_RATE, TONE_FFT_SIZE, ConfigError, Waveform,
                               active_snr_db, bin_index, tone_power)

S10 = get_profile("s10")
PAYLOAD = tuple(int(b) for b in "110100110100")


def s10_link(bit_time=0.7):
    fsk = modem_tx.bfsk_config(*S10.fsk_pair, bit_time)
    return fsk, demod_config_for(S10, fsk)


class TestDemodulateStream:
    def test_single_frame_high_snr(self):
        fsk, rx = s10_link()
        w = modem_tx.transmit_frames([PAYLOAD], fsk, gap=0.0)
        trace = apply_channel(w, S10, ChannelCondition(snr_db=37, noise_seed=0))
        report = demodulate_stream(trace, rx)
        assert report.sync_count == 1
        assert len(report.frames) == 1
        frame = report.frames[0]
        assert frame.payload == PAYLOAD and frame.parity_valid
        assert frame.snr_db > 20

    def test_pure_noise_no_sync(self):
        # false syncs on noise are rare but not impossible at default
        # settings; a multi-seed sweep keeps this a rate check, not a
        # single lucky draw
        fsk, rx = s10_link()
        silence = Waveform(np.zeros(60 * 48000), 48000)
        total = 0
        for seed in range(5):
            trace = apply_channel(silence, S10,
                                  ChannelCondition(noise_rms=0.02, noise_seed=seed))
            report = demodulate_stream(trace, rx)
            total += report.sync_count
        assert total == 0

    def test_two_frames_in_order(self):
        fsk, rx = s10_link()
        other = tuple(int(b) for b in "001011100011")
        w = modem_tx.transmit_frames([PAYLOAD, other], fsk, gap=0.5)
        trace = apply_channel(w, S10, ChannelCondition(snr_db=30, noise_seed=4))
        report = demodulate_stream(trace, rx)
        assert [f.payload for f in report.frames] == [PAYLOAD, other]
        assert all(f.parity_valid for f in report.frames)

    def test_cut_in_second_frame_truncated(self):
        # cut half way through the second frame: its preamble syncs, its
        # payload slots run off the end of the trace
        fsk, rx = s10_link()
        other = tuple(int(b) for b in "001011100011")
        w = modem_tx.transmit_frames([PAYLOAD, other], fsk, gap=0.5)
        trace = apply_channel(w, S10, ChannelCondition(snr_db=30, noise_seed=4))
        cut = int((PAD_SECONDS + 17 * 0.7 + 0.5 + 8.5 * 0.7) * DEFAULT_GYRO_RATE)
        report = demodulate_stream(
            GyroTrace(trace.t_us[:cut], trace.data[:cut], trace.sample_rate), rx)
        assert [f.payload for f in report.frames] == [PAYLOAD]
        assert report.sync_count == 2 and report.lost_sync_count == 1
        assert report.diagnostics[-1].endswith("truncated by end of trace")

    def test_other_rate_rejected(self):
        fsk, rx = s10_link()
        trace = GyroTrace.from_axes(np.zeros((5000, 3)), 250)
        with pytest.raises(ConfigError, match="250 != receiver rate 500"):
            demodulate_stream(trace, rx)

    def test_short_trace_empty_report(self):
        fsk, rx = s10_link()
        trace = GyroTrace(t_us=np.arange(10, dtype=np.int64) * 2000,
                          data=np.zeros((10, 3)))
        report = demodulate_stream(trace, rx)
        assert report.frames == [] and report.diagnostics

    def test_axis_permutation_agnostic(self):
        fsk, rx = s10_link()
        w = modem_tx.transmit_frames([PAYLOAD], fsk, gap=0.0)
        for weights in ((1.0, 1.0, 0.0), (0.0, 1.0, 1.0), (1.0, 0.0, 1.0)):
            prof = dataclasses.replace(S10, axis_weights=weights)
            trace = apply_channel(w, prof, ChannelCondition())
            report = demodulate_stream(trace, rx)
            assert len(report.frames) == 1
            assert report.frames[0].payload == PAYLOAD

    def test_mary_noiseless_all_symbols(self):
        prof = get_profile("s10_mfsk")
        tones = modem_tx.uniform_tones(19000.0, 19105.0, 32)
        fsk = modem_tx.FskConfig(tone_freqs=tones, bit_time=0.7)
        rx = demod_config_for(prof, fsk)
        # choose payloads whose middle symbols enumerate all 32 tone values
        payloads = []
        for i in range(16):
            v1, v2 = 2 * i, 2 * i + 1
            bits = ([0] + [int(b) for b in format(v1, "05b")]
                    + [int(b) for b in format(v2, "05b")] + [0])
            payloads.append(tuple(bits))
        covered = set()
        for p in payloads:
            covered.update(modem_tx.bits_to_symbols(
                modem_tx.frame_bits_padded(p, fsk), 5))
        assert covered == set(range(32))
        w = modem_tx.transmit_frames(payloads, fsk, gap=0.5)
        trace = apply_channel(w, prof, ChannelCondition())
        report = demodulate_stream(trace, rx)
        assert [f.payload for f in report.frames] == payloads
        assert all(f.parity_valid for f in report.frames)

    @pytest.mark.parametrize("snr_db", [18, 10])
    def test_mary_onset_not_early(self, snr_db):
        # noise in the lead-in padding can fire the onset near t = 0, several
        # hops ahead of the frame; refinement must still land on the frame
        prof = get_profile("s10_mfsk")
        tones = modem_tx.uniform_tones(19000.0, 19105.0, 32)
        fsk = modem_tx.FskConfig(tone_freqs=tones, bit_time=0.7)
        rx = demod_config_for(prof, fsk)
        hop_s = rx.hop / DEFAULT_GYRO_RATE
        w = modem_tx.transmit_frames([PAYLOAD], fsk, gap=0.0)
        clean = demodulate_stream(apply_channel(w, prof, ChannelCondition()), rx)
        onset = clean.frames[0].start_time
        for seed in range(3):
            trace = apply_channel(w, prof, ChannelCondition(snr_db=snr_db,
                                                            noise_seed=seed))
            frame = demodulate_stream(trace, rx).frames[0]
            assert abs(frame.start_time - onset) <= hop_s + 1e-9
            assert frame.payload == PAYLOAD


def goertzel_reference(x, freq, rate):
    """Single-tone matched-filter energy, one tone at a time."""
    n = np.arange(len(x))
    return float(np.abs(np.dot(x, np.exp(-2j * np.pi * freq * n / rate))) ** 2)


class TestToneEnergies:
    @settings(max_examples=25, deadline=None)
    @given(order_log2=st.integers(1, 5),
           rate=st.integers(50, 2000),
           symbol_len=st.integers(1, 600),
           seg_frac=st.floats(0.0, 1.0),
           start=st.integers(0, 200),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_probe_matches_goertzel(self, order_log2, rate, symbol_len,
                                    seg_frac, start, seed):
        rng = np.random.default_rng(seed)
        g = np.sort(rng.uniform(0.0, rate / 2, 2 ** order_log2))
        probe = _tone_probe(g, rate, symbol_len + 1)
        # any length up to the probe's, whole symbols or not
        length = 1 + int(seg_frac * symbol_len)
        streams = rng.standard_normal((3, start + length + 50))
        got = _tone_energies(streams, start, start + length, probe)
        want = np.array([[goertzel_reference(row[start:start + length], f, rate)
                          for f in g] for row in streams])
        # rounding error is absolute, on the scale of the Parseval bound
        scale = length * float((streams[:, start:start + length] ** 2).sum())
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-13 * scale)


def synthetic_sync_inputs(flip_per_bit=0):
    """Clean `1010` preamble with 8 windows per bit on stream 0."""
    cfg = DemodConfig(bit_time=0.512, g_freqs=(65.0, 77.0))
    n_win = 40
    decisions = np.zeros((1, n_win), dtype=np.int8)
    mags = np.full((1, n_win, 2), 0.05)
    rng = np.random.default_rng(5)
    for slot, want in enumerate((1, 0, 1, 0)):
        idx = np.arange(slot * 8, slot * 8 + 8)
        decisions[0, idx] = want
        mags[0, idx, want] = 1.0
        if flip_per_bit:
            bad = rng.choice(idx, size=flip_per_bit, replace=False)
            decisions[0, bad] ^= 1
    floors = np.array([0.001])
    centers = (np.arange(n_win) * cfg.hop + cfg.fft_size / 2) / DEFAULT_GYRO_RATE
    return decisions, mags, floors, centers, 31, cfg


def ones_before(decisions):
    """Running count of windows deciding 1, as _binary_demod builds it."""
    return np.pad(np.cumsum(decisions, axis=1), ((0, 0), (1, 0)))


def sync_candidate(decisions, *rest):
    return _sync_candidate(ones_before(decisions), *rest)


class TestDetectSync:
    def test_clean_preamble_found(self):
        score, t0, streams = sync_candidate(*synthetic_sync_inputs())
        assert streams == [0] and score > 0
        assert t0 == pytest.approx(0.128, abs=0.2)

    def test_all_zero_not_found(self):
        decisions, mags, floors, centers, end, cfg = synthetic_sync_inputs()
        decisions[:] = 0
        score, _, streams = sync_candidate(decisions, mags, floors, centers,
                                           end, cfg)
        assert score == 0 and streams == []

    def test_one_flip_per_bit_still_found(self):
        score, _, streams = sync_candidate(*synthetic_sync_inputs(flip_per_bit=1))
        assert streams == [0] and score > 0


def sync_candidate_reference(decisions, magnitudes, floors, centers, end_idx, cfg):
    """The preamble search written stream by stream and slot by slot."""
    pre_dur = 4 * cfg.bit_time
    t0 = centers[end_idx] - pre_dur + cfg.hop / DEFAULT_GYRO_RATE
    best = (0.0, t0, [])
    for delta in (-2, -1, 0, 1, 2):
        cand_t0 = t0 + delta * cfg.hop / DEFAULT_GYRO_RATE
        matched, score_total = [], 0.0
        for s in range(decisions.shape[0]):
            score, ok = 0.0, True
            for slot, want in enumerate((1, 0, 1, 0)):
                lo = cand_t0 + slot * cfg.bit_time
                idx = np.nonzero((centers >= lo) & (centers < lo + cfg.bit_time))[0]
                idx = idx[idx <= end_idx]
                if len(idx) == 0:
                    ok = False
                    break
                agree = float(np.mean(decisions[s, idx] == want))
                if agree < SYNC_AGREEMENT:
                    ok = False
                    break
                score += agree
            if not ok:
                continue
            span = np.nonzero((centers >= cand_t0) & (centers < cand_t0 + pre_dur))[0]
            p = (magnitudes[s, span].max(axis=1) ** 2).mean()
            if floors[s] > 0 and p < SYNC_ENERGY_GATE * floors[s]:
                continue
            if floors[s] <= 0 and p <= 0:
                continue
            matched.append(s)
            score_total += score
        if matched and score_total > best[0]:
            best = (score_total, cand_t0, matched)
    return best


class TestSyncCandidateReference:
    @settings(max_examples=60, deadline=None)
    @given(bit_time=st.floats(0.1, 1.0),
           extra_windows=st.integers(2, 40),
           flip=st.floats(0.0, 0.3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, bit_time, extra_windows, flip, seed):
        rng = np.random.default_rng(seed)
        cfg = DemodConfig(bit_time=bit_time, g_freqs=(65.0, 77.0))
        n_win = int(4 * cfg.windows_per_bit) + extra_windows
        centers = (np.arange(n_win) * cfg.hop + cfg.fft_size / 2) / DEFAULT_GYRO_RATE
        # a `1010` preamble at a random onset on every stream, then random
        # flips; the search ends within two windows of the preamble's end
        onset = rng.uniform(-bit_time / 4, centers[-1] - 3.5 * bit_time)
        slot = np.floor((centers - onset) / bit_time).astype(int)
        clean = np.where((slot >= 0) & (slot < 4), (slot + 1) % 2,
                         rng.integers(0, 2, n_win))
        decisions = (clean ^ (rng.random((4, n_win)) < flip)).astype(np.int8)
        magnitudes = rng.uniform(0.0, 1.0, (4, n_win, 2))
        floors = rng.uniform(0.0, 0.15, 4) * rng.integers(0, 2, 4)
        end = np.searchsorted(centers, onset + 4 * bit_time) - 1 + rng.integers(-2, 3)
        args = (decisions, magnitudes, floors, centers,
                int(np.clip(end, 0, n_win - 1)), cfg)
        assert sync_candidate(*args) == sync_candidate_reference(*args)


def slot_bit(window_magnitudes):
    """_slot_bits on one slot holding every window."""
    combined = np.array(window_magnitudes, dtype=float)
    return _slot_bits(combined, np.array([0]), np.array([len(combined)]))[0]


class TestDecideBit:
    def test_unanimous(self):
        assert slot_bit([(0.1, 0.2), (0.3, 0.3), (0.0, 1.0), (0.5, 0.9)]) == 1

    def test_majority(self):
        assert slot_bit([(0.9, 0.1), (0.8, 0.7), (0.1, 5.0)]) == 0

    def test_tie_breaks_on_magnitude(self):
        assert slot_bit([(0.9, 0.1), (0.1, 1.4)]) == 1
        # equal sums: 1 needs a strictly larger f1 sum
        assert slot_bit([(0.5, 0.25), (0.25, 0.5)]) == 0
        # summed window by window both tones reach 1e16; a pairwise f1 sum
        # would keep the three 1s and reach 1e16 + 2
        assert slot_bit([(0, 1e16), (0, 1), (1e-300, 0), (1e-300, 0),
                         (0, 1), (0, 1), (1e16, 0), (1e-300, 0)]) == 0


def decide_bit_reference(window_symbols, window_magnitudes):
    """Majority vote by a dict of counts; a tie goes to the symbol with the
    larger magnitude summed window by window as Python floats."""
    counts = {}
    for s in window_symbols:
        counts[s] = counts.get(s, 0) + 1
    best = max(counts.values())
    tied = sorted(s for s, c in counts.items() if c == best)
    if len(tied) == 1:
        return tied[0]
    sums = {s: 0.0 for s in tied}
    for mags in window_magnitudes:
        for s in tied:
            sums[s] += float(mags[s])
    return max(tied, key=lambda s: sums[s])


def binary_demod_reference(mags, floors, centers, cfg, trace):
    """The B-FSK receiver with a nonzero window mask per payload slot."""
    report = RxReport()
    decisions = (mags[:, :, 1] >= mags[:, :, 0]).astype(np.int8)
    n_win = mags.shape[1]
    n4 = max(int(round(4 * cfg.windows_per_bit)), 4)
    frame_dur = FRAME_BITS * cfg.bit_time
    k = n4 - 1
    while k < n_win:
        score, t0, axes = sync_candidate_reference(decisions, mags, floors,
                                                   centers, k, cfg)
        if not axes:
            k += 1
            continue
        for k2 in range(k + 1, min(k + 1 + int(np.ceil(cfg.windows_per_bit)), n_win)):
            s2, t2, a2 = sync_candidate_reference(decisions, mags, floors,
                                                  centers, k2, cfg)
            if a2 and s2 > score:
                score, t0, axes = s2, t2, a2
        report.sync_count += 1
        bits = []
        for slot in range(4, FRAME_BITS):
            lo = t0 + slot * cfg.bit_time
            idx = np.nonzero((centers >= lo) & (centers < lo + cfg.bit_time))[0]
            if len(idx) == 0:
                report.lost_sync_count += 1
                report.diagnostics.append(
                    f"frame at t={t0:.3f}s truncated by end of trace")
                return report
            combined = mags[axes][:, idx, :].sum(axis=0)
            symbols = (combined[:, 1] >= combined[:, 0]).astype(int)
            bits.append(decide_bit_reference(symbols, combined))
        payload, valid = decode_frame(list(SYNC_PATTERN) + bits)
        report.frames.append(RxFrame(payload, valid,
                                     _frame_snr(trace, cfg, t0, frame_dur), t0))
        k = int(np.searchsorted(centers, t0 + frame_dur)) + n4 - 1
    return report


class TestBinaryDemodReference:
    @settings(max_examples=60, deadline=None)
    @given(bit_time=st.floats(0.07, 0.8),
           n_frames=st.integers(1, 3),
           integer_mags=st.booleans(),
           cut=st.floats(0.7, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, bit_time, n_frames, integer_mags, cut, seed):
        rng = np.random.default_rng(seed)
        cfg = DemodConfig(bit_time=bit_time, g_freqs=(65.0, 77.0))
        frame_dur = FRAME_BITS * bit_time
        onsets = (np.cumsum(rng.uniform(0.1, 2.0, n_frames))
                  + np.arange(n_frames) * frame_dur)
        n_win = int(cut * (onsets[-1] + frame_dur + 0.5) * DEFAULT_GYRO_RATE / cfg.hop)
        centers = (np.arange(n_win) * cfg.hop + cfg.fft_size / 2) / DEFAULT_GYRO_RATE
        # small integer magnitudes give even splits with equal and unequal
        # tone sums; uniform ones give sums that depend on summation order
        if integer_mags:
            mags = rng.integers(0, 2, (4, n_win, 2)).astype(float)
        else:
            mags = rng.uniform(0.0, 2.0, (4, n_win, 2))
        # a `1010` preamble at each onset, its tone missing in a few windows
        for onset in onsets:
            slot = np.floor((centers - onset) / bit_time)
            for s, want in enumerate(SYNC_PATTERN):
                idx = np.flatnonzero(slot == s)
                keep = rng.random((4, len(idx))) < 0.15
                mags[:, idx, want] = np.where(keep, mags[:, idx, want], 3.0)
        floors = rng.uniform(0.0, 2.0, 4) * rng.integers(0, 2, 4)
        n = (n_win - 1) * cfg.hop + cfg.fft_size
        trace = GyroTrace.from_axes(rng.standard_normal((n, 3)), DEFAULT_GYRO_RATE)
        args = (mags, floors, centers, cfg, trace)
        assert _binary_demod(*args) == binary_demod_reference(*args)


def frame_matched_energy_reference(streams, t0, n_symbols, cfg, probe):
    """Sum over symbol slots of the strongest tone on the strongest stream;
    -1 when a slot falls outside the trace."""
    rate = DEFAULT_GYRO_RATE
    total = 0.0
    for s in range(n_symbols):
        start = int(round((t0 + s * cfg.symbol_time) * rate))
        stop = int(round((t0 + (s + 1) * cfg.symbol_time) * rate))
        if start < 0 or stop > streams.shape[1]:
            return -1.0
        total += float(_tone_energies(streams, start, stop, probe).max())
    return total


def mary_demod_reference(streams, mags, floors, centers, cfg, trace):
    """The M-FSK receiver that scores each onset candidate in one slot loop
    and decodes the winner in a second, clamped one."""
    report = RxReport()
    b = cfg.bits_per_symbol
    n_symbols = -(-FRAME_BITS // b)
    frame_dur = n_symbols * cfg.symbol_time
    power = (mags.max(axis=2) ** 2)
    floor = np.maximum(floors, 1e-30)[:, None]
    pmax = power.max(axis=0)
    gate = SYNC_ENERGY_GATE * floor.max()
    hot = pmax[pmax > gate]
    thresh = max(gate, 0.1 * float(np.median(hot))) if len(hot) else gate
    active = pmax > thresh
    rate = DEFAULT_GYRO_RATE
    probe = _tone_probe(cfg.g_freqs, rate, int(np.ceil(cfg.symbol_time * rate)) + 1)
    k = 0
    while k < len(centers):
        if not active[k]:
            k += 1
            continue
        t0 = centers[k] - cfg.fft_size / (2 * rate)
        report.sync_count += 1
        if int(round((t0 + frame_dur) * rate)) > streams.shape[1]:
            report.lost_sync_count += 1
            report.diagnostics.append(f"frame at t={t0:.3f}s truncated by end of trace")
            break
        best_delta, best_e, delta = 0, -1.0, -5
        while delta <= 3 or best_delta == delta - 1:
            e = frame_matched_energy_reference(streams, t0 + delta * cfg.hop / rate,
                                               n_symbols, cfg, probe)
            if e > best_e:
                best_delta, best_e = delta, e
            delta += 1
        best_t0 = t0 + best_delta * cfg.hop / rate
        bits = []
        for s in range(n_symbols):
            start = int(round((best_t0 + s * cfg.symbol_time) * rate))
            stop = int(round((best_t0 + (s + 1) * cfg.symbol_time) * rate))
            start = max(start, 0)
            stop = min(stop, streams.shape[1])
            sym = int(np.argmax(_tone_energies(streams, start, stop, probe).sum(axis=0)))
            bits.extend((sym >> (b - 1 - i)) & 1 for i in range(b))
        payload, valid = decode_frame(bits[:FRAME_BITS])
        report.frames.append(RxFrame(payload, valid,
                                     _frame_snr(trace, cfg, best_t0, frame_dur), best_t0))
        k = int(np.searchsorted(centers, best_t0 + frame_dur + cfg.symbol_time / 4))
    return report


def mary_args(trace, cfg):
    """_mary_demod's inputs, built as demodulate_stream builds them."""
    mags, floors = _window_stats(_streams(trace), cfg)
    centers = (np.arange(mags.shape[1]) * cfg.hop + cfg.fft_size / 2) / DEFAULT_GYRO_RATE
    raw = trace.data.T - trace.data.T.mean(axis=1, keepdims=True)
    return raw, mags, floors, centers, cfg, trace


class TestMaryDemodReference:
    @pytest.mark.parametrize("bit_time", [0.7, 0.35])
    @pytest.mark.parametrize("order", [4, 8, 16, 32])
    def test_matches_reference(self, order, bit_time):
        prof = get_profile("s10_mfsk")
        tones = modem_tx.uniform_tones(19000.0, 19105.0, order)
        fsk = modem_tx.FskConfig(tone_freqs=tones, bit_time=bit_time)
        rx = demod_config_for(prof, fsk)
        other = tuple(int(b) for b in "001011100011")
        w = modem_tx.transmit_frames([PAYLOAD, other], fsk, gap=0.5)
        reports = []
        for snr_db in (None, 18, 10, 5):
            trace = apply_channel(w, prof, ChannelCondition(snr_db=snr_db, noise_seed=order))
            # whole, cut in the second frame, cut in the first frame
            for cut in (1.0, 0.75, 0.45):
                n = int(cut * len(trace))
                part = GyroTrace(trace.t_us[:n], trace.data[:n], trace.sample_rate)
                args = mary_args(part, rx)
                reports.append(_mary_demod(*args))
                assert reports[-1] == mary_demod_reference(*args)
        assert sum(len(r.frames) for r in reports) >= 12
        assert sum(r.lost_sync_count for r in reports) >= 4


def tone_snr_db_reference(x, freqs, rate, fft_size, noverlap):
    """The former sigcore.tone_snr_db: tone-bin SNR of one stream over
    mean-removed rectangular frames, sliced explicitly."""
    hop = fft_size - noverlap
    frames = np.array([x[i:i + fft_size] for i in range(0, len(x) - fft_size + 1, hop)])
    power = np.abs(np.fft.rfft(frames - frames.mean(axis=1, keepdims=True), axis=1)) ** 2
    return active_snr_db(*tone_power(power, [bin_index(f, fft_size, rate) for f in freqs]))


def measure_snr_reference(trace, g_freqs, fft_size):
    """The former measure_snr: one tone_snr_db per detrended axis, best wins."""
    best = float("-inf")
    for ax in range(3):
        x = trace.data[:, ax]
        x = x - x.mean()
        best = max(best, tone_snr_db_reference(x, g_freqs, trace.sample_rate,
                                               fft_size, fft_size * 3 // 4))
    return best


class TestMeasureSnr:
    @pytest.mark.parametrize("name, order", [("s10", 2), ("s10_mfsk", 8)])
    @pytest.mark.parametrize("snr_db", [0.0, 12.0, 30.0])
    def test_equals_per_axis_reference(self, name, order, snr_db):
        prof = get_profile(name)
        tones = (prof.fsk_pair if order == 2
                 else modem_tx.uniform_tones(19000.0, 19105.0, order))
        fsk = modem_tx.FskConfig(tone_freqs=tones, bit_time=0.7)
        rx = demod_config_for(prof, fsk)
        assert rx.fft_size == (128 if order == 2 else 256)
        w = modem_tx.transmit_frames([PAYLOAD], fsk, gap=0.0)
        trace = apply_channel(w, prof, ChannelCondition(snr_db=snr_db, noise_seed=3))
        assert measure_snr(trace, rx.g_freqs, rx) == \
            measure_snr_reference(trace, rx.g_freqs, rx.fft_size)
        assert measure_snr(trace, rx.g_freqs[:2]) == \
            measure_snr_reference(trace, rx.g_freqs[:2], TONE_FFT_SIZE)

    @staticmethod
    def make_trace(target_db, seed, n=6000, rate=500, fft_size=128, a=0.1):
        g = 17 * rate / fft_size
        t = np.arange(n) / rate
        sig_p = (fft_size * a / 2) ** 2
        ratio = 10 ** (target_db / 10)
        sigma = np.sqrt(sig_p / (ratio * np.log(2) - 1.0) / fft_size)
        rng = np.random.default_rng(seed)
        x = a * np.sin(2 * np.pi * g * t) + sigma * rng.standard_normal(n)
        data = np.column_stack([x, sigma * rng.standard_normal(n),
                                sigma * rng.standard_normal(n)])
        return GyroTrace(t_us=(t * 1e6).astype(np.int64), data=data), g

    def test_injected_ratio_recovered(self):
        trace, g = self.make_trace(25.0, seed=1)
        assert measure_snr(trace, (g,)) == pytest.approx(25.0, abs=1.0)

    def test_noiseless_tone_floor_limited(self):
        rate, n = 500, 6000
        g = 17 * rate / 128
        t = np.arange(n) / rate
        x = 0.1 * np.sin(2 * np.pi * g * t)
        trace = GyroTrace(t_us=(t * 1e6).astype(np.int64),
                          data=np.column_stack([x, 0 * x, 0 * x]))
        assert measure_snr(trace, (g,)) >= 60.0

    def test_preset_snr_survives_simulation(self):
        from gyromodem.channel import distance_to_snr, get_preset, gyro_frequency
        s9 = get_profile("s9")
        fsk = modem_tx.bfsk_config(*s9.fsk_pair, 0.7)
        rx = demod_config_for(s9, fsk)
        w = modem_tx.transmit_frames([PAYLOAD], fsk, gap=0.0)
        target = distance_to_snr(get_preset("s9", "open"), 200)
        trace = apply_channel(w, s9, ChannelCondition(snr_db=target, noise_seed=5))
        g = tuple(gyro_frequency(f, s9) for f in s9.fsk_pair)
        assert measure_snr(trace, g, rx) == pytest.approx(target, abs=1.5)
