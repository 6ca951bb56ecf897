"""Acoustic-to-gyroscope channel simulation."""

import dataclasses
import json
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import signal as sps

from gyromodem import channel, harness, modem_rx, modem_tx
from gyromodem.channel import (
    BUILTIN_PROFILES,
    DEFAULT_AXIS_BIAS,
    OVERLOAD_PHASE_SPREAD,
    PAD_SECONDS,
    SATURATION_LEVEL,
    ChannelCondition,
    ChannelError,
    GyroTrace,
    _complex_shift,
    _downconvert,
    _lowpass_taps,
    _saturate,
    _translate,
    apply_channel,
    distance_to_snr,
    get_preset,
    get_profile,
    gyro_frequency,
    load_profile,
    read_trace_csv,
    superpose,
    write_trace_csv,
)
from gyromodem.countermeasure import JammerConfig, jam_waveform
from gyromodem.harness import demod_config_for
from gyromodem.sigcore import (DEFAULT_GYRO_RATE, ConfigError, Waveform,
                               frame_spectra, frames, generate_chirp,
                               generate_sine, tone_power)

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
        for axis in (0, 1):
            sig = trace.data[:, axis] - trace.data[:, axis].mean()
            assert np.argmax(np.abs(np.fft.rfft(frames(sig, 500, 0)[2]))) == 65
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


class TestNoiseRule:
    """One rule: sigma is calibrated on the waveform as sent, and the
    condition's defences (speaker low-pass, jammer) change only what reaches
    the gyroscope."""

    TONE = generate_sine(19065.0, 2.0, 0.2, 48000)

    def jammer(self):
        return jam_waveform(JammerConfig(f_min=S10.band_lo, f_max=S10.band_hi, seed=3,
                                         total_duration=self.TONE.duration))

    @pytest.mark.parametrize("jammed", [False, True], ids=["plain", "jammed"])
    def test_noiseless_draws_no_noise(self, monkeypatch, jammed):
        calls = []
        real = channel._shaped_noise
        monkeypatch.setattr(channel, "_shaped_noise",
                            lambda *args: calls.append(args) or real(*args))
        jam = self.jammer() if jammed else None
        trace = apply_channel(self.TONE, S10, ChannelCondition(jammer=jam))
        assert calls == []
        received = superpose(self.TONE, jam)[0] if jammed else self.TONE
        weights = np.asarray(S10.axis_weights)
        expected = (S10.response_amplitude * _translate(received, S10)[:, None]
                    * weights[None, :] + np.asarray(DEFAULT_AXIS_BIAS)[None, :])
        assert trace.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("defence", ["none", "filter", "jammer", "both"])
    def test_sigma_calibrated_on_waveform_as_sent(self, monkeypatch, defence):
        translated, calibrated = [], []
        real_translate, real_calibrate = channel._translate, channel._calibrate_sigma

        def spy_translate(w, profile):
            translated.append(real_translate(w, profile))
            return translated[-1]

        def spy_calibrate(base, *rest):
            calibrated.append(base)
            return real_calibrate(base, *rest)

        monkeypatch.setattr(channel, "_translate", spy_translate)
        monkeypatch.setattr(channel, "_calibrate_sigma", spy_calibrate)
        cond = ChannelCondition(
            snr_db=20.0, noise_seed=1,
            filter_cutoff=16000.0 if defence in ("filter", "both") else None,
            jammer=self.jammer() if defence in ("jammer", "both") else None)
        apply_channel(self.TONE, S10, cond)
        (base,) = calibrated
        assert base.tobytes() == real_translate(self.TONE, S10).tobytes()
        if defence == "none":
            assert len(translated) == 1 and base is translated[0]

    def test_jammer_longer_than_waveform(self):
        jam = jam_waveform(JammerConfig(f_min=S10.band_lo, f_max=S10.band_hi, seed=3,
                                        total_duration=2 * self.TONE.duration))
        trace = apply_channel(self.TONE, S10, ChannelCondition(snr_db=20.0, jammer=jam))
        assert len(trace) == len(_translate(jam, S10))

    def test_speaker_filter_costs_snr(self):
        fsk, rx = s10_rx()
        w = modem_tx.transmit_frames([(1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0)], fsk, gap=0.0)
        plain, filtered = (
            modem_rx.measure_snr(apply_channel(w, S10, ChannelCondition(
                snr_db=20.0, noise_seed=4, filter_cutoff=cutoff)), rx.g_freqs, rx)
            for cutoff in (None, 16000.0))
        assert plain == pytest.approx(20.0, abs=0.5)
        assert filtered <= plain - 4.0


class TestUnusableInput:
    @pytest.mark.parametrize("field,value", [
        ("snr_db", np.nan), ("snr_db", np.inf),
        ("noise_rms", -0.01), ("noise_rms", np.nan), ("noise_rms", np.inf),
        ("filter_cutoff", 0.0), ("filter_cutoff", -100.0), ("filter_cutoff", np.nan),
        ("filter_cutoff", np.inf),
    ])
    def test_condition_rejected(self, field, value):
        with pytest.raises(ChannelError, match=field):
            ChannelCondition(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("gyro_max_freq", 0.0), ("gyro_max_freq", -80.0), ("gyro_max_freq", 300.0),
        ("response_amplitude", 0.0), ("response_amplitude", -0.02),
    ])
    def test_profile_rejected(self, field, value):
        with pytest.raises(ChannelError, match=field):
            dataclasses.replace(S10, **{field: value})


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
        fast = np.abs(frame_spectra(clean, 128) + sigma * frame_spectra(noise, 128)) ** 2
        ref = np.abs(frame_spectra(clean + sigma * noise, 128)) ** 2
        (fast_sig, fast_floor), (ref_sig, ref_floor) = (
            tone_power(fast, bins), tone_power(ref, bins))
        # rounding error is absolute, on the scale of the strongest bin
        atol = 1e-12 * float(ref.max())
        np.testing.assert_allclose(fast_sig, ref_sig, rtol=1e-9, atol=atol)
        assert fast_floor == pytest.approx(ref_floor, rel=1e-9, abs=atol)


def reference_downconvert(x, fs, f_center):
    """The former front end: an input-rate mixer over the whole signal, then
    resample_poly of the complex result."""
    ratio = Fraction(DEFAULT_GYRO_RATE, fs)
    return sps.resample_poly(_complex_shift(x, -f_center, fs),
                             ratio.numerator, ratio.denominator)


def reference_unsaturated(w, profile):
    """_translate's complex gyro-domain signal before _saturate, built on
    reference_downconvert and freshly designed band filters."""
    pad = int(round(PAD_SECONDS * w.sample_rate))
    x = np.concatenate([np.zeros(pad), w.samples, np.zeros(pad)])
    f_center = 0.5 * (profile.band_lo + profile.band_hi)
    half_bw = 0.5 * (profile.band_hi - profile.band_lo)
    z = reference_downconvert(x, w.sample_rate, f_center)
    taps = sps.firwin(1001, half_bw + 2.0, fs=DEFAULT_GYRO_RATE)
    z = sps.fftconvolve(z, taps, mode="same")
    y = _complex_shift(z, f_center - profile.band_lo, DEFAULT_GYRO_RATE)
    gmax = profile.gyro_max_freq
    if profile.band_hi - profile.band_lo > gmax:
        u = _complex_shift(y, -gmax / 2.0, DEFAULT_GYRO_RATE)
        lp = sps.firwin(801, gmax / 2.0 + 1.0, fs=DEFAULT_GYRO_RATE)
        low = _complex_shift(sps.fftconvolve(u, lp, mode="same"), gmax / 2.0,
                             DEFAULT_GYRO_RATE)
        y = low + np.abs(y - low) * np.exp(
            2j * np.pi * gmax * np.arange(len(y)) / DEFAULT_GYRO_RATE)
    return y


def payload_frame(profile_name, order=2, sample_rate=48000):
    profile = get_profile(profile_name)
    cfg = harness.ExperimentConfig(profile=profile_name,
                                   modulation="bfsk" if order == 2 else "mfsk",
                                   order=order)
    fsk = harness.fsk_config_for(profile, cfg)
    payload = tuple(int(b) for b in "101100101110")
    return modem_tx.transmit_frames([payload], fsk, gap=0.0, sample_rate=sample_rate)


# the mixer-free front end must reproduce the former one to within rounding
TRANSLATE_RTOL = 1e-9


class TestTranslateAccuracy:
    @pytest.mark.parametrize("case", [
        "oneplus7", "s9", "s10", "s10_mfsk-32fsk", "chirp-oneplus7", "s10-44100"])
    def test_matches_mixer_reference(self, case):
        if case == "s10_mfsk-32fsk":
            profile, w = get_profile("s10_mfsk"), payload_frame("s10_mfsk", order=32)
        elif case == "chirp-oneplus7":
            # sweeps through the band and past both edges, across the fold
            profile = get_profile("oneplus7")
            w = generate_chirp(profile.band_lo - 300.0, profile.band_hi + 300.0,
                               6.0, 0.2, 48000)
        elif case == "s10-44100":
            # 500/44100 = 5/441: the up = 5 path
            profile, w = S10, payload_frame("s10", sample_rate=44100)
        else:
            profile, w = get_profile(case), payload_frame(case)
        ref = np.real(_saturate(reference_unsaturated(w, profile)))
        got = _translate(w, profile)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= TRANSLATE_RTOL * np.max(np.abs(ref))

    def test_jammed_overload_matches_reference(self, monkeypatch):
        w = payload_frame("s10")
        jam = jam_waveform(JammerConfig(
            f_min=S10.band_lo, f_max=S10.band_hi, max_volume=0.2, volume=0.2,
            seed=0, total_duration=w.duration))
        combined, clipped = superpose(w, jam)
        seen = []
        monkeypatch.setattr(channel, "_saturate",
                            lambda y: seen.append(y) or _saturate(y))
        got = _translate(combined, S10)
        ref_y = reference_unsaturated(combined, S10)
        ref = _saturate(ref_y)
        over = ref != ref_y
        assert over.any() and clipped == 0
        # the linear front end agrees like the unjammed links
        peak = np.max(np.abs(ref_y))
        assert np.max(np.abs(seen[0] - ref_y)) <= TRANSLATE_RTOL * peak
        assert np.array_equal(_saturate(seen[0]) != seen[0], over)
        err = np.abs(got - np.real(ref))
        assert np.max(err[~over]) <= TRANSLATE_RTOL * peak
        # overload multiplies phase by OVERLOAD_PHASE_SPREAD: a phase error
        # of |dy|/|y| grows to SPREAD * LEVEL * |dy|/|y| in its output
        gain = OVERLOAD_PHASE_SPREAD * SATURATION_LEVEL / np.abs(ref_y[over])
        assert np.all(err[over] <= gain * TRANSLATE_RTOL * peak)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 5000),
           rate_hundreds=st.integers(80, 960),
           centre_share=st.floats(0.0, 0.5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_downconvert_matches_mixer_reference(self, n, rate_hundreds,
                                                 centre_share, seed):
        fs = 100 * rate_hundreds
        f_center = centre_share * fs
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, n)
        ref = reference_downconvert(x, fs, f_center)
        got = _downconvert(x, fs, f_center)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= TRANSLATE_RTOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("fs,block_rows", [
        (48000, channel.DECIMATE_BLOCK_ROWS), (44100, 512), (48000, 3), (44100, 3)])
    def test_downconvert_block_seams(self, monkeypatch, fs, block_rows):
        # four row blocks and a partial last row; 3-row blocks are shorter
        # than the filter, so each output sums rows of several blocks. At
        # 44.1 kHz a smaller block keeps the input short enough for the
        # reference's mixer, whose phase error grows with the sample index.
        monkeypatch.setattr(channel, "DECIMATE_BLOCK_ROWS", block_rows)
        down = Fraction(DEFAULT_GYRO_RATE, fs).denominator
        n = (3 * block_rows + 2) * down + down // 2
        x = np.random.default_rng(block_rows).uniform(-1.0, 1.0, n)
        ref = reference_downconvert(x, fs, 19038.5)
        got = _downconvert(x, fs, 19038.5)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= TRANSLATE_RTOL * np.max(np.abs(ref))

    def test_peak_memory_near_padded_input(self):
        profile = get_profile("oneplus7")
        w = payload_frame("oneplus7")
        _translate(w, profile)  # design and cache the filters first
        tracemalloc.start()
        try:
            _translate(w, profile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        padded_bytes = 8 * (len(w) + 2 * int(round(PAD_SECONDS * w.sample_rate)))
        assert peak <= 2 * padded_bytes


class TestLowpassTaps:
    @pytest.mark.parametrize("numtaps,cutoff", [
        (1001, 0.5 * (S10.band_hi - S10.band_lo) + 2.0),
        (801, 0.5 * BUILTIN_PROFILES["oneplus7"].gyro_max_freq + 1.0),
        (301, S9.gyro_max_freq + 10.0)])
    def test_equals_fresh_design_and_is_shared_read_only(self, numtaps, cutoff):
        taps = _lowpass_taps(numtaps, cutoff)
        assert taps.tobytes() == sps.firwin(numtaps, cutoff, fs=DEFAULT_GYRO_RATE).tobytes()
        assert _lowpass_taps(numtaps, cutoff) is taps
        with pytest.raises(ValueError):
            taps[0] = 1.0


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

    @settings(max_examples=40, deadline=None)
    @given(data=arrays(np.float64, st.tuples(st.integers(2, 400), st.just(3)),
                       elements=st.floats(allow_nan=False, allow_infinity=False)),
           rate=st.sampled_from((250, 500, 1000)))
    def test_random_trace_csv_round_trip(self, tmp_path_factory, data, rate):
        trace = GyroTrace.from_axes(data, rate)
        path = tmp_path_factory.mktemp("csv") / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert np.array_equal(back.t_us, trace.t_us)
        assert np.array_equal(back.data, trace.data)
        assert back.sample_rate == rate

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t_us,x,y,z\n0,0.1,0.2,0.3\n2000,nan,0.2,0.3\n")
        with pytest.raises(ValueError, match="finite"):
            read_trace_csv(path)

    @pytest.mark.parametrize("name", sorted(BUILTIN_PROFILES))
    def test_profile_json_round_trip(self, tmp_path, name):
        profile = BUILTIN_PROFILES[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dataclasses.asdict(profile)))
        assert load_profile(path) == profile

    def test_profile_unknown_key_rejected(self, tmp_path):
        # a misspelt override must not fall back to the built-in value
        doc = dict(dataclasses.asdict(S9), gyro_max_frq=90.0)
        path = tmp_path / "s9.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="gyro_max_frq"):
            load_profile(path)

    def test_profile_string_number_rejected(self, tmp_path):
        doc = dict(dataclasses.asdict(S9), band_lo="20050")
        path = tmp_path / "s9.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="DeviceProfile.band_lo"):
            load_profile(path)

    def test_unknown_profile_lists_names(self):
        with pytest.raises(ChannelError) as err:
            get_profile("nokia3310")
        assert "s10" in str(err.value)
