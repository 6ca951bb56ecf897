"""FSK synthesis and WAV interchange."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gyromodem import channel
from gyromodem.modem_tx import (
    FskConfig,
    bfsk_config,
    bits_to_symbols,
    export_wav,
    frame_bits_padded,
    import_wav,
    modulate,
    symbol_frequency,
    transmit_frames,
    uniform_tones,
)
from gyromodem.sigcore import Waveform, frames

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


class TestSymbolFrequency:
    def test_bfsk_pair(self):
        cfg = s10_bfsk()
        assert symbol_frequency(0, cfg) == 19065.0
        assert symbol_frequency(1, cfg) == 19077.0

    def test_mary_endpoints_and_spacing(self):
        cfg = FskConfig(tone_freqs=uniform_tones(19000, 19105, 32), bit_time=0.7)
        assert symbol_frequency(0, cfg) == 19000.0
        assert symbol_frequency(31, cfg) == 19105.0
        spacing = np.diff(cfg.tone_freqs)
        assert np.allclose(spacing, 105 / 31)
        assert spacing[0] == pytest.approx(3.387, abs=0.001)

    def test_out_of_range_symbol(self):
        with pytest.raises(Exception):
            symbol_frequency(2, s10_bfsk())


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


class TestTransmitFrames:
    def test_single_frame_duration(self):
        w = transmit_frames([(0,) * 12], s10_bfsk(0.7), gap=0.0)
        assert w.duration == pytest.approx(17 * 0.7, abs=1e-6)

    def test_no_payloads(self):
        assert len(transmit_frames([], s10_bfsk())) == 0

    def test_two_frames_with_gap(self):
        w = transmit_frames([(0,) * 12, (1,) * 12], s10_bfsk(0.7), gap=0.5)
        assert w.duration == pytest.approx(2 * 17 * 0.7 + 0.5, abs=1e-6)


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
