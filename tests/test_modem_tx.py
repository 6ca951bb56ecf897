"""FSK synthesis and WAV interchange."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gyromodem import channel, sigcore
from gyromodem.modem_tx import (
    FskConfig,
    bfsk_config,
    bits_to_symbols,
    export_wav,
    frame_bits_padded,
    import_wav,
    modulate,
    transmit_frames,
    uniform_tones,
)
from gyromodem.sigcore import ToneSegment, Waveform, fill_tone, frames

S10 = channel.get_profile("s10")


def s10_bfsk(bit_time=0.7):
    return bfsk_config(*S10.fsk_pair, bit_time)


class TestFskConfig:
    def test_order_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            FskConfig(tone_freqs=(100.0, 200.0, 300.0), bit_time=0.1)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            FskConfig(tone_freqs=tuple(19000.0 + i for i in range(64)), bit_time=0.1)

    def test_tones_must_ascend(self):
        with pytest.raises(ValueError):
            FskConfig(tone_freqs=(19077.0, 19065.0), bit_time=0.1)

    def test_symbol_time_scales_with_bits(self):
        cfg = FskConfig(tone_freqs=uniform_tones(19000, 19105, 32), bit_time=0.7)
        assert cfg.order == 32
        assert cfg.bits_per_symbol == 5
        assert cfg.symbol_time == pytest.approx(3.5)

    def test_uniform_tones_endpoints_and_spacing(self):
        cfg = FskConfig(tone_freqs=uniform_tones(19000, 19105, 32), bit_time=0.7)
        assert cfg.tone_freqs[0] == 19000.0
        assert cfg.tone_freqs[-1] == 19105.0
        spacing = np.diff(cfg.tone_freqs)
        assert np.allclose(spacing, 105 / 31)
        assert spacing[0] == pytest.approx(3.387, abs=0.001)


class TestModulate:
    def test_alternating_bits_duration_and_tones(self):
        cfg = s10_bfsk(0.7)
        w = modulate([0, 1, 0, 1, 0, 1, 0, 1], cfg)
        assert w.duration == pytest.approx(5.6, abs=1e-6)
        mags = np.abs(np.fft.rfft(frames(w.samples, 4096, 0), axis=1))
        for bit_idx, want in enumerate([0, 1, 0, 1, 0, 1, 0, 1]):
            # pick a frame centred inside the bit
            t_mid = (bit_idx + 0.5) * 0.7
            frame = int(t_mid * 48000 / 4096)
            peak_hz = np.argmax(mags[frame]) * 48000 / 4096
            assert abs(peak_hz - cfg.tone_freqs[want]) <= 48000 / 4096

    def test_empty_bits(self):
        assert len(modulate([], s10_bfsk())) == 0

    def test_sync_pattern_short_bits(self):
        w = modulate([1, 0, 1, 0], s10_bfsk(0.125))
        assert w.duration == pytest.approx(0.5, abs=1e-6)

    def test_indivisible_bit_count_rejected(self):
        cfg = FskConfig(tone_freqs=uniform_tones(19000, 19105, 4), bit_time=0.1)
        with pytest.raises(Exception):
            modulate([1, 0, 1], cfg)

    def test_phase_continuity(self):
        cfg = s10_bfsk(0.125)
        w = modulate([0, 1] * 8, cfg)
        max_step = cfg.amplitude * 2 * np.pi * max(cfg.tone_freqs) / 48000 * 1.01
        assert np.max(np.abs(np.diff(w.samples))) <= max_step

    def test_spectral_purity_single_symbol(self):
        cfg = s10_bfsk(0.5)
        w = modulate([0], cfg)
        power = np.abs(np.fft.rfft(frames(w.samples, 4096, 0)[0])) ** 2
        center = round(19065 * 4096 / 48000)
        in_band = power[center - 2:center + 3].sum()
        assert in_band / power.sum() >= 0.95


def modulate_cumsum_reference(bits, cfg, rate=48000):
    """The former modulate: one frequency per sample, its phase accumulated
    as 2*pi*cumsum(freqs)/rate, so a frame's first sample has phase f/rate."""
    symbols = bits_to_symbols(bits, cfg.bits_per_symbol)
    seg_len = int(round(cfg.symbol_time * rate))
    freqs = np.repeat([cfg.tone_freqs[s] for s in symbols], seg_len)
    return cfg.amplitude * np.sin(2 * np.pi * np.cumsum(freqs) / rate)


class TestTransmitFrames:
    def test_single_frame_duration(self):
        w = transmit_frames([(0,) * 12], s10_bfsk(0.7), gap=0.0)
        assert w.duration == pytest.approx(17 * 0.7, abs=1e-6)

    def test_no_payloads(self):
        assert len(transmit_frames([], s10_bfsk())) == 0

    def test_two_frames_with_gap(self):
        w = transmit_frames([(0,) * 12, (1,) * 12], s10_bfsk(0.7), gap=0.5)
        assert w.duration == pytest.approx(2 * 17 * 0.7 + 0.5, abs=1e-6)

    def test_mfsk_phase_exact_over_40_frames(self):
        # the tones of uniform_tones are not whole hertz, so a phase summed
        # in floating point drifts: the cumsum rule was 2e-5 of full scale
        # off within one frame
        cfg = FskConfig(tone_freqs=uniform_tones(19000, 19105, 32), bit_time=0.7)
        rng = np.random.default_rng(40)
        payloads = [tuple(rng.integers(0, 2, 12)) for _ in range(40)]
        w = transmit_frames(payloads, cfg, gap=0.5)
        seg_len, gap_len = int(round(cfg.symbol_time * 48000)), 24000
        pos, worst = 0, 0.0
        for payload in payloads:
            cycles = Fraction(0)  # each frame starts its phase afresh
            for s in bits_to_symbols(frame_bits_padded(payload, cfg), 5):
                f = Fraction(cfg.tone_freqs[s]) / 48000
                for k in np.r_[0, seg_len - 1, rng.integers(1, seg_len - 1, 30)]:
                    exact = (cycles + f * int(k + 1)) % 1
                    want = cfg.amplitude * math.sin(2 * math.pi * float(exact))
                    worst = max(worst, abs(w.samples[pos + k] - want))
                cycles += f * seg_len
                pos += seg_len
            assert not w.samples[pos:pos + gap_len].any()
            pos += gap_len
        assert pos == len(w) + gap_len
        assert worst <= 1e-13 * cfg.amplitude

    @pytest.mark.parametrize("name", ["s10", "s9", "oneplus7"])
    @pytest.mark.parametrize("bit_time", [0.7, 0.125])
    def test_bfsk_matches_cumsum_reference(self, name, bit_time):
        # whole-hertz tones: the cumsum rule's phase sums exactly and only
        # the 2*pi multiply rounds, at up to 1.4e6 rad over a frame
        cfg = bfsk_config(*channel.get_profile(name).fsk_pair, bit_time)
        bits = frame_bits_padded(tuple(np.random.default_rng(7).integers(0, 2, 12)), cfg)
        got = modulate(bits, cfg).samples
        want = modulate_cumsum_reference(bits, cfg)
        assert len(got) == len(want)
        assert np.max(np.abs(got - want)) <= 1e-9 * cfg.amplitude


def synthesise_reference(frames, cfg, gap_len, rate):
    """The former _synthesise: one fill_tone call per symbol, straight into
    one zeroed buffer of frames and gaps."""
    seg_len = int(round(cfg.symbol_time * rate))
    out = np.zeros(sum(len(s) for s in frames) * seg_len
                   + max(len(frames) - 1, 0) * gap_len)
    pos = 0
    for symbols in frames:
        cycles = Fraction(0)
        for s in symbols:
            f = Fraction(cfg.tone_freqs[s]) / rate
            fill_tone(out[pos:pos + seg_len], cfg.tone_freqs[s], rate, cycles + f,
                      cfg.amplitude)
            cycles = (cycles + f * seg_len) % 1
            pos += seg_len
        pos += gap_len
    return Waveform(out, rate)


class TestToneRecord:
    @pytest.mark.parametrize("order,rate,n_frames,gap", [
        (2, 48000, 1, 0.0), (2, 48000, 3, 0.5), (2, 44100, 2, 0.25),
        (4, 48000, 2, 0.5), (32, 48000, 3, 0.5), (32, 44100, 1, 0.0)])
    def test_samples_match_buffer_reference(self, monkeypatch, order, rate, n_frames, gap):
        tones = S10.fsk_pair if order == 2 else uniform_tones(19000, 19105, order)
        cfg = FskConfig(tone_freqs=tones, bit_time=0.35)
        rng = np.random.default_rng(order + n_frames)
        payloads = [tuple(rng.integers(0, 2, 12)) for _ in range(n_frames)]
        frames = [bits_to_symbols(frame_bits_padded(p, cfg), cfg.bits_per_symbol)
                  for p in payloads]
        ref = synthesise_reference(frames, cfg, int(round(gap * rate)), rate)
        calls = []
        monkeypatch.setattr(sigcore, "fill_tone",
                            lambda *args: calls.append(args) or fill_tone(*args))
        w = transmit_frames(payloads, cfg, gap=gap, sample_rate=rate)
        assert len(w.tones) == sum(len(f) for f in frames)
        # len and duration come from the record, with no synthesis
        assert (len(w), w.duration, calls) == (len(ref), ref.duration, [])
        assert w.samples.tobytes() == ref.samples.tobytes()
        assert len(calls) == len(w.tones)
        assert w.samples is w.samples and not w.samples.flags.writeable

    @pytest.mark.parametrize("field,bad", [
        ("freq", math.nan), ("freq", math.inf), ("amplitude", math.nan),
        ("amplitude", math.inf), ("amplitude", -0.1), ("amplitude", 1.5)])
    def test_bad_segment_rejected(self, field, bad):
        segment = ToneSegment(0, 10, 19065.0, Fraction(0), 0.2)._replace(**{field: bad})
        with pytest.raises(ValueError, match=field.replace("freq", "frequency")):
            Waveform.from_tones([segment], 10, 48000)

    @pytest.mark.parametrize("segments,length", [
        ([(0, 10, 19065.0, Fraction(0), 0.2), (5, 10, 19077.0, Fraction(0), 0.2)], 20),
        ([(0, 10, 19065.0, Fraction(0), 0.2)], 9),
        ([(0, 10, 19065.0, 0.25, 0.2)], 10)],
        ids=["overlap", "past-end", "float-phase"])
    def test_bad_layout_rejected(self, segments, length):
        with pytest.raises(ValueError, match="tone segment"):
            Waveform.from_tones(segments, length, 48000)

    def test_padded_keeps_the_record(self):
        w = transmit_frames([(1,) * 12], s10_bfsk(0.35), gap=0.0)
        longer = w.padded(len(w) + 1000)
        assert longer.tones == w.tones and len(longer) == len(w) + 1000
        assert longer.samples.tobytes() == np.pad(w.samples, (0, 1000)).tobytes()


class TestSymbolPacking:
    def test_bits_to_symbols(self):
        assert bits_to_symbols([1, 0, 1, 1], 2) == (2, 3)

    def test_frame_bits_padded_to_symbol_boundary(self):
        cfg = FskConfig(tone_freqs=uniform_tones(19000, 19105, 32), bit_time=0.7)
        bits = frame_bits_padded((0,) * 12, cfg)
        assert len(bits) % cfg.bits_per_symbol == 0
        assert len(bits) == 20


class TestWavInterchange:
    def test_silence_file_layout(self, tmp_path):
        from gyromodem.modem_tx import Waveform
        path = tmp_path / "silence.wav"
        export_wav(Waveform(np.zeros(48000), 48000), path)
        raw = path.read_bytes()
        assert len(raw) == 44 + 96000
        assert raw[:4] == b"RIFF" and raw[8:12] == b"WAVE"
        assert all(b == 0 for b in raw[44:])

    def test_full_scale_sample(self, tmp_path):
        from gyromodem.modem_tx import Waveform
        path = tmp_path / "fs.wav"
        export_wav(Waveform(np.array([1.0, -1.0]), 48000), path)
        data = np.frombuffer(path.read_bytes()[44:], dtype="<i2")
        assert data[0] == 32767

    def test_round_trip_error_bound(self, tmp_path):
        from gyromodem.sigcore import generate_sine
        w = generate_sine(19000.0, 0.5, 0.2, 48000)
        path = tmp_path / "tone.wav"
        export_wav(w, path)
        back = import_wav(path)
        assert back.sample_rate == 48000
        assert np.max(np.abs(back.samples - w.samples)) <= 1 / 32767

    @settings(max_examples=40, deadline=None)
    @given(samples=arrays(np.float64, st.integers(1, 400),
                          elements=st.floats(-1.0, 1.0)))
    def test_random_samples_round_trip(self, tmp_path_factory, samples):
        path = tmp_path_factory.mktemp("wav") / "random.wav"
        export_wav(Waveform(samples, 48000), path)
        back = import_wav(path)
        assert back.sample_rate == 48000 and len(back) == len(samples)
        assert np.max(np.abs(back.samples - samples)) <= 1 / 32767
