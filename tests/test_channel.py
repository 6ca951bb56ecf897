"""Acoustic-to-gyroscope channel simulation."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from gyromodem import modem_rx, modem_tx
from gyromodem.channel import (
    ChannelCondition,
    ChannelError,
    GyroTrace,
    _resample_complex,
    apply_channel,
    distance_to_snr,
    get_preset,
    get_profile,
    gyro_frequency,
    load_profile,
    profile_to_dict,
    read_trace_csv,
    superpose,
    write_trace_csv,
)
from gyromodem.harness import demod_config_for
from gyromodem.sigcore import Waveform, frame_spectra, generate_sine, tone_power

S10 = get_profile("s10")
S9 = get_profile("s9")


def s10_rx():
    fsk = modem_tx.bfsk_config(*S10.fsk_pair, 0.7)
    return fsk, demod_config_for(S10, fsk)


class TestGyroFrequency:
    def test_s10_pair(self):
        assert gyro_frequency(19065.0, S10) == 65.0
        assert gyro_frequency(19077.0, S10) == 77.0

    def test_band_edge(self):
        assert gyro_frequency(S10.band_lo, S10) == 0.0

    def test_s9_tone(self):
        assert gyro_frequency(19588.0, S9) == 88.0

    def test_out_of_band_none(self):
        assert gyro_frequency(S10.band_lo - 100.0, S10) is None

    def test_spacing_preserved(self):
        for fa, fb in ((19010.0, 19050.0), (19030.5, 19071.25)):
            ga, gb = gyro_frequency(fa, S10), gyro_frequency(fb, S10)
            assert gb - ga == pytest.approx(fb - fa, abs=1e-9)


class TestApplyChannel:
    def test_frame_at_high_snr_decodes(self):
        fsk, rx = s10_rx()
        payload = tuple(int(b) for b in "110100110100")
        w = modem_tx.transmit_frames([payload], fsk, gap=0.0)
        trace = apply_channel(w, S10, ChannelCondition(snr_db=37, noise_seed=0))
        report = modem_rx.demodulate_stream(trace, rx)
        assert len(report.frames) == 1
        assert report.frames[0].payload == payload
        assert report.frames[0].parity_valid

    def test_silence_yields_pure_noise(self):
        fsk, rx = s10_rx()
        silence = Waveform(np.zeros(2 * 48000), 48000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trace = apply_channel(silence, S10, ChannelCondition(snr_db=20, noise_seed=1))
        measured = modem_rx.measure_snr(trace, (65.0, 77.0), rx)
        assert measured <= 10.0

    def test_noiseless_tone_lands_on_weighted_axes(self):
        tone = generate_sine(19065.0, 3.0, 0.2, 48000)
        trace = apply_channel(tone, S10, ChannelCondition())
        from gyromodem.sigcore import stft
        for axis in (0, 1):
            sig = trace.data[:, axis] - trace.data[:, axis].mean()
            spec = stft(sig, 500, 0, sample_rate=500)
            assert np.argmax(spec.magnitudes[2]) == 65
        z = trace.data[:, 2]
        assert np.max(np.abs(z - z.mean())) < 1e-9

    def test_axis_weight_rms_ratio(self):
        tone = generate_sine(19580.0, 3.0, 0.2, 48000)
        trace = apply_channel(tone, S9, ChannelCondition())
        mid = trace.data[800:1800] - trace.data[800:1800].mean(axis=0)
        rms = np.sqrt(np.mean(mid ** 2, axis=0))
        assert rms[1] / rms[0] == pytest.approx(1.0, rel=0.05)
        assert rms[2] / rms[0] == pytest.approx(0.3, rel=0.05)

    def test_determinism(self):
        tone = generate_sine(19065.0, 1.0, 0.2, 48000)
        cond = ChannelCondition(snr_db=20, noise_seed=42)
        a = apply_channel(tone, S10, cond)
        b = apply_channel(tone, S10, cond)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.t_us, b.t_us)

    def test_timestamps_strictly_increasing(self):
        tone = generate_sine(19065.0, 1.0, 0.2, 48000)
        trace = apply_channel(tone, S10, ChannelCondition())
        assert np.all(np.diff(trace.t_us) > 0)

    def test_empty_waveform_rejected(self):
        with pytest.raises(ChannelError):
            apply_channel(Waveform(np.zeros(0), 48000), S10, ChannelCondition())

    def test_measured_snr_monotonic_in_request(self):
        fsk, rx = s10_rx()
        tone = generate_sine(19065.0, 3.0, 0.2, 48000)
        measured = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for req in (0, 10, 20, 30, 40):
                trace = apply_channel(tone, S10, ChannelCondition(snr_db=req, noise_seed=7))
                measured.append(modem_rx.measure_snr(trace, (65.0, 77.0), rx))
        assert all(b >= a - 0.3 for a, b in zip(measured, measured[1:]))

    def test_calibrated_snr_hits_request(self):
        fsk, rx = s10_rx()
        tone = generate_sine(19065.0, 3.0, 0.2, 48000)
        trace = apply_channel(tone, S10, ChannelCondition(snr_db=25, noise_seed=3))
        assert modem_rx.measure_snr(trace, (65.0, 77.0), rx) == pytest.approx(25.0, abs=0.5)

    def test_out_of_band_tone_rejected(self):
        fsk, rx = s10_rx()
        n = 3 * 48000
        tone = generate_sine(S10.band_lo - 500.0, 3.0, 0.2, 48000)
        silence = Waveform(np.zeros(n), 48000)
        cond = ChannelCondition(noise_rms=0.01, noise_seed=2)
        m_tone = modem_rx.measure_snr(apply_channel(tone, S10, cond), (65.0, 77.0), rx)
        m_noise = modem_rx.measure_snr(apply_channel(silence, S10, cond), (65.0, 77.0), rx)
        assert abs(m_tone - m_noise) <= 3.0


class TestCalibrateSigma:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(128, 3000),
           log_sigma=st.floats(-6.0, 3.0),
           bins=st.lists(st.integers(0, 64), min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_linear_spectra_match_materialised(self, n, log_sigma, bins, seed):
        # _calibrate_sigma scores each sigma on spec(clean) + sigma*spec(noise)
        rng = np.random.default_rng(seed)
        clean, noise = rng.standard_normal((2, n))
        sigma = 10.0 ** log_sigma
        fast = np.abs(frame_spectra(clean, 128, 96)
                      + sigma * frame_spectra(noise, 128, 96)) ** 2
        ref = np.abs(frame_spectra(clean + sigma * noise, 128, 96)) ** 2
        (fast_sig, fast_floor), (ref_sig, ref_floor) = (
            tone_power(fast, bins), tone_power(ref, bins))
        # rounding error is absolute, on the scale of the strongest bin
        atol = 1e-12 * float(ref.max())
        np.testing.assert_allclose(fast_sig, ref_sig, rtol=1e-9, atol=atol)
        assert fast_floor == pytest.approx(ref_floor, rel=1e-9, abs=atol)


class TestResampleComplex:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 4000),
           up=st.integers(1, 5),
           down=st.integers(1, 100),
           pad=st.integers(0, 500),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bit_identical_to_complex_pass(self, n, up, down, pad, seed):
        rng = np.random.default_rng(seed)
        # zero padding shifted like _translate's, so it carries signed zeros
        x = np.concatenate([np.zeros(pad), rng.standard_normal(n), np.zeros(pad)])
        z = x * np.exp(2j * np.pi * rng.uniform(-0.5, 0.5) * np.arange(len(x)))
        got = _resample_complex(z, up, down)
        assert got.tobytes() == sps.resample_poly(z, up, down).tobytes()


class TestDistanceToSnr:
    def test_published_points(self):
        assert distance_to_snr(get_preset("s9", "open"), 200) == 25.0
        assert distance_to_snr(get_preset("oneplus7", "narrow"), 100) == 26.0
        assert distance_to_snr(get_preset("s9", "open"), 100) == 33.0

    def test_interpolation_between_points(self):
        preset = get_preset("s9", "open")
        lo = distance_to_snr(preset, 100)
        hi = distance_to_snr(preset, 150)
        assert distance_to_snr(preset, 125) == pytest.approx((lo + hi) / 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(Exception):
            distance_to_snr(get_preset("s9", "open"), 5000)


class TestSuperpose:
    def test_additive_identity(self):
        a = generate_sine(19065.0, 0.1, 0.8, 48000)
        out, clipped = superpose(a, Waveform(np.zeros(len(a)), 48000))
        assert np.array_equal(out.samples, a.samples)
        assert clipped == 0

    def test_cancellation(self):
        a = generate_sine(19065.0, 0.1, 0.8, 48000)
        out, clipped = superpose(a, Waveform(-a.samples, 48000))
        assert np.max(np.abs(out.samples)) == 0.0
        assert clipped == 0

    def test_clipping_reported(self):
        a = generate_sine(19065.0, 0.1, 0.8, 48000)
        out, clipped = superpose(a, a)
        assert clipped > 0
        assert np.max(np.abs(out.samples)) <= 1.0

    def test_rate_mismatch_rejected(self):
        a = generate_sine(1000.0, 0.1, 0.5, 48000)
        b = generate_sine(100.0, 0.1, 0.5, 8000)
        with pytest.raises(Exception):
            superpose(a, b)


class TestSerialization:
    def test_trace_csv_round_trip(self, tmp_path):
        tone = generate_sine(19065.0, 0.5, 0.2, 48000)
        trace = apply_channel(tone, S10, ChannelCondition(snr_db=20, noise_seed=9))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        header = path.read_text().splitlines()[0]
        assert header == "t_us,x,y,z"
        back = read_trace_csv(path)
        assert np.array_equal(back.t_us, trace.t_us)
        assert np.allclose(back.data, trace.data, atol=1e-9)

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t_us,x,y,z\n0,0.1,0.2,0.3\n2000,nan,0.2,0.3\n")
        with pytest.raises(ValueError, match="finite"):
            read_trace_csv(path)

    def test_profile_json_round_trip(self, tmp_path):
        doc = profile_to_dict(S9)
        path = tmp_path / "s9.json"
        path.write_text(json.dumps(doc))
        back = load_profile(path)
        assert back == S9

    def test_unknown_profile_lists_names(self):
        with pytest.raises(ChannelError) as err:
            get_profile("nokia3310")
        assert "s10" in str(err.value)
