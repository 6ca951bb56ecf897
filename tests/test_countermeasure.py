"""In-band jammer synthesis and low-pass speaker filtering."""

import numpy as np
import pytest

from gyromodem import modem_rx, modem_tx
from gyromodem.channel import ChannelCondition, apply_channel, get_profile, gyro_frequency
from gyromodem.countermeasure import RAMP_SECONDS, JammerConfig, jam_waveform, lowpass
from gyromodem.harness import demod_config_for
from gyromodem.sigcore import Waveform, generate_sine

S10 = get_profile("s10")


def rms(x):
    return np.sqrt(np.mean(np.square(x)))


def steady_gain_db(freq, cutoff, rate=48000):
    tone = generate_sine(freq, 1.0, 0.5, rate)
    out = lowpass(tone, cutoff)
    # skip the transient head before comparing levels
    return 20 * np.log10(rms(out.samples[10000:]) / rms(tone.samples[10000:]))


def jam_waveform_reference(cfg, rate=48000):
    """The former jam_waveform: each burst one np.sin over its own sample
    times, so its phase starts at 0, then ramped."""
    rng = np.random.default_rng(cfg.seed)
    total = int(round(cfg.total_duration * rate))
    ramp_len = int(round(RAMP_SECONDS * rate))
    out = np.zeros(total)
    pos = 0
    while pos < total:
        freq = rng.uniform(cfg.f_min, cfg.f_max)
        duration = cfg.T * (1.0 - rng.uniform(0.0, 1.0))
        volume = cfg.max_volume * (1.0 - rng.uniform(0.0, 1.0))
        if cfg.volume is not None:
            volume = cfg.volume
        n = min(int(round(duration * rate)), total - pos)
        if n > 0:
            tone = volume * np.sin(2 * np.pi * freq * np.arange(n) / rate)
            r = min(ramp_len, n // 2)
            if r > 0:
                edge = 0.5 * (1 - np.cos(np.pi * np.arange(r) / r))
                tone[:r] *= edge
                tone[-r:] *= edge[::-1]
            out[pos:pos + n] = tone
            pos += n
        pos += int(round(cfg.T * (1.0 - rng.uniform(0.0, 1.0)) * rate))
    return out


class TestJammerConfig:
    def test_band_must_be_ordered(self):
        with pytest.raises(Exception):
            JammerConfig(f_min=19100.0, f_max=19000.0, T=1.0, max_volume=0.2)

    def test_volume_bounds(self):
        with pytest.raises(Exception):
            JammerConfig(f_min=19000.0, f_max=19077.0, T=1.0, max_volume=0.0)
        with pytest.raises(Exception):
            JammerConfig(f_min=19000.0, f_max=19077.0, T=1.0, max_volume=0.2,
                         volume=0.5)


class TestJamWaveform:
    def test_band_confinement(self):
        cfg = JammerConfig(f_min=19000.0, f_max=19077.0, T=1.0, max_volume=0.2,
                           seed=1, total_duration=16.0)
        w = jam_waveform(cfg)
        assert w.duration == pytest.approx(16.0, abs=0.01)
        spectrum = np.abs(np.fft.rfft(w.samples)) ** 2
        freqs = np.fft.rfftfreq(len(w.samples), 1 / 48000)
        # ramped burst edges leak slightly past the band limits
        in_band = (freqs >= cfg.f_min - 50) & (freqs <= cfg.f_max + 50)
        assert spectrum[in_band].sum() / spectrum.sum() >= 0.99

    def test_vanishing_volume_limit(self):
        cfg = JammerConfig(f_min=19000.0, f_max=19077.0, T=1.0, max_volume=1e-6,
                           seed=0, total_duration=4.0)
        assert np.max(np.abs(jam_waveform(cfg).samples)) <= 1e-6

    def test_deterministic(self):
        cfg = JammerConfig(f_min=19000.0, f_max=19077.0, T=1.0, max_volume=0.2,
                           seed=7, total_duration=8.0)
        assert np.array_equal(jam_waveform(cfg).samples, jam_waveform(cfg).samples)

    def test_fixed_volume_sets_burst_level(self):
        cfg = JammerConfig(f_min=19000.0, f_max=19077.0, T=1.0, max_volume=0.2,
                           seed=3, total_duration=8.0, volume=0.15)
        w = jam_waveform(cfg)
        assert np.max(np.abs(w.samples)) == pytest.approx(0.15, abs=0.005)

    def test_fixed_volume_keeps_burst_schedule(self):
        base = JammerConfig(f_min=19000.0, f_max=19077.0, T=1.0, max_volume=0.2,
                            seed=9, total_duration=8.0)
        pinned = JammerConfig(f_min=19000.0, f_max=19077.0, T=1.0, max_volume=0.2,
                              seed=9, total_duration=8.0, volume=0.2)
        a, b = jam_waveform(base), jam_waveform(pinned)
        assert np.array_equal(a.samples != 0, b.samples != 0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("volume", [None, 0.2])
    def test_matches_per_sample_reference(self, seed, volume):
        # criterion 7's jammer: s10's band, bursts up to 1 s, over 12 s
        cfg = JammerConfig(f_min=S10.band_lo, f_max=S10.band_hi, T=1.0, max_volume=0.2,
                           seed=seed, total_duration=12.0, volume=volume)
        got = jam_waveform(cfg).samples
        want = jam_waveform_reference(cfg)
        assert len(got) == len(want)
        assert np.max(np.abs(got - want)) <= 1e-10


class TestLowpass:
    def test_ultrasonic_attenuation(self):
        assert steady_gain_db(19065.0, 16000.0) <= -4.0

    def test_dc_gain(self):
        const = Waveform(np.full(48000, 0.5), 48000)
        out = lowpass(const, 16000.0)
        assert np.mean(out.samples[-1000:]) / 0.5 == pytest.approx(1.0, abs=0.01)

    def test_rolloff_at_double_cutoff(self):
        assert steady_gain_db(10000.0, 5000.0) <= -6.0

    def test_audible_content_transparent(self):
        assert steady_gain_db(1000.0, 16000.0) >= -0.2

    def test_near_nyquist_cutoff_identity(self):
        assert steady_gain_db(1000.0, 23900.0) >= -0.05

    def test_invalid_cutoff_rejected(self):
        tone = generate_sine(1000.0, 0.1, 0.5, 48000)
        with pytest.raises(Exception):
            lowpass(tone, 0.0)
        with pytest.raises(Exception):
            lowpass(tone, 24000.0)


class TestFilterEfficacy:
    def test_single_and_double_filtering(self):
        payload = tuple(int(b) for b in "110100110100")
        fsk = modem_tx.bfsk_config(*S10.fsk_pair, 0.7)
        rx = demod_config_for(S10, fsk)
        g = tuple(gyro_frequency(f, S10) for f in S10.fsk_pair)
        w = modem_tx.transmit_frames([payload], fsk, gap=0.0)
        cond = ChannelCondition(noise_rms=0.0017084)

        snr_plain = modem_rx.measure_snr(apply_channel(w, S10, cond), g, rx)
        once = lowpass(w, 16000.0)
        snr_once = modem_rx.measure_snr(apply_channel(once, S10, cond), g, rx)
        assert snr_plain - snr_once >= 4.0

        twice = lowpass(once, 16000.0)
        report = modem_rx.demodulate_stream(apply_channel(twice, S10, cond), rx)
        assert report.frames == []
