"""Signal-core primitives: synthesis, framing, smoothing, bin arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyromodem.sigcore import (
    ConfigError,
    FrequencyRangeError,
    GyroTrace,
    Waveform,
    bin_index,
    frame_spectra,
    frames,
    generate_chirp,
    generate_sine,
    magnitude_stream,
    moving_average,
    tone_power,
)


def rect_magnitudes(x, fft_size, noverlap=0):
    """Rectangular-window magnitude spectrum of every frame of x."""
    return np.abs(np.fft.rfft(frames(x, fft_size, noverlap), axis=1))


class TestGenerateSine:
    def test_ultrasonic_tone_shape_and_peak(self):
        w = generate_sine(19000.0, 0.5, 0.20, 48000)
        assert len(w) == 24000
        assert np.max(np.abs(w.samples)) == pytest.approx(0.20, abs=1e-12)
        peak_hz = np.argmax(rect_magnitudes(w.samples, 4096)[0]) * 48000 / 4096
        assert abs(peak_hz - 19000.0) <= 48000 / 4096

    def test_zero_amplitude_is_silence(self):
        w = generate_sine(5000.0, 0.25, 0.0, 48000)
        assert np.all(w.samples == 0.0)

    def test_closed_form_samples(self):
        w = generate_sine(100.0, 1.0, 1.0, 1000)
        assert w.samples[0] == pytest.approx(0.0, abs=1e-12)
        assert w.samples[2] == pytest.approx(np.sin(2 * np.pi * 100 * 2 / 1000), abs=1e-12)
        assert w.samples[2] == pytest.approx(0.951056516, abs=1e-6)

    def test_nyquist_rejected(self):
        with pytest.raises(FrequencyRangeError):
            generate_sine(24000.0, 0.1, 0.5, 48000)


class TestGenerateChirp:
    def test_degenerate_chirp_equals_sine(self):
        c = generate_chirp(440.0, 440.0, 0.5, 0.3, 48000)
        s = generate_sine(440.0, 0.5, 0.3, 48000)
        assert np.max(np.abs(c.samples - s.samples)) < 1e-12

    def test_instantaneous_frequency_at_midpoint(self):
        w = generate_chirp(0.0, 250.0, 1.0, 1.0, 500)
        # frame 2 covers t in [0.4, 0.6); its centroid frequency is 125 Hz
        mid = rect_magnitudes(w.samples, 100)[2]
        peak_hz = np.argmax(mid) * 500 / 100
        assert abs(peak_hz - 125.0) <= 15.0

    def test_nyquist_rejected(self):
        with pytest.raises(FrequencyRangeError):
            generate_chirp(1000.0, 30000.0, 1.0, 0.5, 48000)


class TestStft:
    """Rectangular-window short-time spectra built on sigcore.frames."""

    def test_integer_bin_tone_peaks_every_frame(self):
        w = generate_sine(50.0, 4.0, 1.0, 500)
        assert np.all(np.argmax(rect_magnitudes(w.samples, 500), axis=1) == 50)

    def test_silence_all_zero(self):
        assert np.all(rect_magnitudes(np.zeros(1024), 128, 96) == 0.0)

    def test_high_band_tone_bin(self):
        w = generate_sine(19065.0, 0.5, 0.5, 48000)
        mags = rect_magnitudes(w.samples, 4096)
        assert np.argmax(mags[0]) == round(19065 * 4096 / 48000) == 1627

    def test_overlap_must_be_smaller_than_fft(self):
        for noverlap in (-1, 128, 200):
            with pytest.raises(ConfigError, match="noverlap"):
                frames(np.zeros(1024), 128, noverlap)

    def test_parseval_energy_balance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(512)
        n = 128
        buf = x[:n]
        m = rect_magnitudes(x, n)[0]
        # real-input spectrum: double every bin except DC and Nyquist
        freq_energy = (m[0] ** 2 + m[-1] ** 2 + 2 * np.sum(m[1:-1] ** 2)) / n
        time_energy = np.sum(buf ** 2)
        assert freq_energy == pytest.approx(time_energy, rel=1e-6)

    def test_on_bin_tone_concentrates_energy(self):
        # 50 Hz falls exactly on a bin of a 500-point FFT at 500 Hz
        w = generate_sine(50.0, 2.0, 1.0, 500)
        m = rect_magnitudes(w.samples, 500)[0] ** 2
        assert m[50] / np.sum(m) >= 0.99


def frames_reference(x, fft_size, noverlap):
    """The former sigcore.frames: a gather through an (frames, fft_size)
    index matrix, which copies every frame."""
    hop = fft_size - noverlap
    n_frames = (len(x) - fft_size) // hop + 1
    index = np.arange(fft_size)[None, :] + hop * np.arange(n_frames)[:, None]
    return np.asarray(x, dtype=np.float64)[index]


class TestFrames:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 600), fft_size=st.integers(1, 300), data=st.data())
    def test_matches_explicit_slicing(self, n, fft_size, data):
        noverlap = data.draw(st.integers(0, fft_size - 1))
        x = np.arange(n, dtype=np.float64) * 0.5 - 7.0
        if n < fft_size:
            with pytest.raises(ConfigError, match="shorter than fft_size"):
                frames(x, fft_size, noverlap)
            return
        hop = fft_size - noverlap
        expected = []
        i = 0
        while i * hop + fft_size <= n:
            expected.append(x[i * hop:i * hop + fft_size])
            i += 1
        got = frames(x, fft_size, noverlap)
        assert got.shape == (len(expected), fft_size)
        assert np.array_equal(got, np.array(expected))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 700), strided=st.booleans(), data=st.data())
    def test_view_matches_gather_reference(self, n, strided, data):
        fft_size = data.draw(st.integers(1, min(n, 300)))
        noverlap = data.draw(st.integers(0, fft_size - 1))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        # a column of an (n, 3) array, as the channel's sigma search passes
        # its noise axes, or a contiguous stream
        block = np.random.default_rng(seed).standard_normal((n, 3))
        x = block[:, 1] if strided else block[:, 1].copy()
        got = frames(x, fft_size, noverlap)
        assert not got.flags.writeable
        assert got.tobytes() == frames_reference(x, fft_size, noverlap).tobytes()
        if fft_size < 4:  # frame_spectra hops a quarter window
            return
        ref = frames_reference(x, fft_size, fft_size - fft_size // 4)
        ref = np.fft.rfft(ref - ref.mean(axis=1, keepdims=True), axis=1)
        assert frame_spectra(x, fft_size).tobytes() == ref.tobytes()


class TestVectorMagnitude:
    def test_zero(self):
        trace = GyroTrace.from_axes(np.zeros((1, 3)))
        assert magnitude_stream(trace)[0] == 0.0

    def test_pythagorean(self):
        trace = GyroTrace.from_axes(np.array([[3.0, 4.0, 0.0]]))
        assert magnitude_stream(trace)[0] == 5.0

    def test_injected_sinusoid_drives_magnitude(self):
        t = np.arange(2000) / 500.0
        x = 0.10 * np.sin(2 * np.pi * 65 * t)
        y = 0.07 * np.sin(2 * np.pi * 65 * t)
        mags = magnitude_stream(
            GyroTrace.from_axes(np.column_stack([x, y, np.zeros_like(x)])))
        # the magnitude of an in-phase pair is a rectified sine whose
        # fundamental sits at twice the injected frequency
        assert np.argmax(rect_magnitudes(mags - mags.mean(), 500)[0]) == 130


class TestTonePower:
    @settings(max_examples=50, deadline=None)
    @given(frames=st.integers(1, 40),
           n_bins=st.integers(16, 65),
           levels=st.integers(1, 1000),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_floor_is_numpy_median(self, frames, n_bins, levels, seed):
        rng = np.random.default_rng(seed)
        # few levels give ties; odd and even noise-bin counts both occur
        power = rng.integers(0, levels, (frames, n_bins)) * rng.uniform(0.5, 2.0)
        original = power.copy()
        tone_bins = sorted(set(rng.integers(0, n_bins, 2).tolist()))
        excluded = {b + d for b in tone_bins for d in range(-2, 3)} | {0, 1}
        noise_bins = [b for b in range(n_bins) if b not in excluded]
        p_sig, floor = tone_power(power, tone_bins)
        assert floor == float(np.median(power[:, noise_bins]))
        assert np.array_equal(p_sig, power[:, tone_bins].max(axis=1))
        assert np.array_equal(power, original)


class TestMovingAverage:
    def test_identity_window(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.array_equal(moving_average(x, 1), x)

    def test_constant_stream_unchanged(self):
        x = np.full(100, 2.5)
        for w in (1, 4, 17):
            out = moving_average(x, w)
            assert len(out) == len(x)
            assert np.allclose(out, 2.5)

    def test_hand_computed(self):
        out = moving_average(np.array([0.0, 2.0, 4.0, 6.0]), 2)
        assert np.allclose(out, [0.0, 1.0, 3.0, 5.0])

    def test_zero_window_rejected(self):
        with pytest.raises(Exception):
            moving_average(np.zeros(4), 0)


class TestBinIndex:
    def test_integer_exact(self):
        assert bin_index(50.0, 500, 500) == 50

    def test_dc(self):
        assert bin_index(0.0, 128, 500) == 0

    def test_rounding(self):
        assert bin_index(77.0, 128, 500) == 20

    def test_out_of_band_rejected(self):
        with pytest.raises(FrequencyRangeError):
            bin_index(300.0, 128, 500)


class TestGyroTrace:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        data = np.zeros((4, 3))
        data[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            GyroTrace.from_axes(data)


class TestWaveform:
    def test_full_scale_enforced(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, 1.5]), 48000)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Waveform(np.array([0.0, bad, 0.5]), 48000)

    def test_duration(self):
        assert Waveform(np.zeros(24000), 48000).duration == 0.5
