"""Batch demodulator: sync detection, M-FSK matched filter, bit decisions,
SNR estimation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyromodem import modem_tx
from gyromodem.channel import ChannelCondition, GyroTrace, apply_channel, get_profile
from gyromodem.harness import demod_config_for
from gyromodem.modem_rx import (
    DemodConfig,
    _sync_candidate,
    _tone_energies,
    _tone_probe,
    decide_bit,
    demodulate_stream,
    measure_snr,
)
from gyromodem.sigcore import Waveform

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
        hop_s = rx.hop / rx.sample_rate
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
    hop = cfg.fft_size - cfg.noverlap
    centers = (np.arange(n_win) * hop + cfg.fft_size / 2) / cfg.sample_rate
    return decisions, mags, floors, centers, 31, cfg


class TestDetectSync:
    def test_clean_preamble_found(self):
        score, t0, streams = _sync_candidate(*synthetic_sync_inputs())
        assert streams == [0] and score > 0
        assert t0 == pytest.approx(0.128, abs=0.2)

    def test_all_zero_not_found(self):
        decisions, mags, floors, centers, end, cfg = synthetic_sync_inputs()
        decisions[:] = 0
        score, _, streams = _sync_candidate(decisions, mags, floors, centers,
                                            end, cfg)
        assert score == 0 and streams == []

    def test_one_flip_per_bit_still_found(self):
        score, _, streams = _sync_candidate(*synthetic_sync_inputs(flip_per_bit=1))
        assert streams == [0] and score > 0


def sync_candidate_reference(decisions, magnitudes, floors, centers, end_idx, cfg):
    """The preamble search written stream by stream and slot by slot."""
    pre_dur = 4 * cfg.bit_time
    t0 = centers[end_idx] - pre_dur + cfg.hop / cfg.sample_rate
    best = (0.0, t0, [])
    for delta in (-2, -1, 0, 1, 2):
        cand_t0 = t0 + delta * cfg.hop / cfg.sample_rate
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
                if agree < cfg.sync_threshold:
                    ok = False
                    break
                score += agree
            if not ok:
                continue
            span = np.nonzero((centers >= cand_t0) & (centers < cand_t0 + pre_dur))[0]
            p = (magnitudes[s, span].max(axis=1) ** 2).mean()
            if floors[s] > 0 and p < cfg.energy_gate * floors[s]:
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
        centers = (np.arange(n_win) * cfg.hop + cfg.fft_size / 2) / cfg.sample_rate
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
        assert _sync_candidate(*args) == sync_candidate_reference(*args)


class TestDecideBit:
    def test_unanimous(self):
        assert decide_bit([1, 1, 1, 1]) == 1

    def test_majority(self):
        assert decide_bit([0, 0, 1]) == 0

    def test_tie_breaks_on_magnitude(self):
        assert decide_bit([0, 1], [(0.9, 0.1), (0.1, 1.4)]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decide_bit([])


class TestMeasureSnr:
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
