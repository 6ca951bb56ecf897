"""Resonance-band discovery from chirp sweeps."""

import numpy as np
import pytest

from gyromodem.calibration import find_resonance_band, write_sweep_csv
from gyromodem.channel import PAD_SECONDS, ChannelCondition, apply_channel, get_profile
from gyromodem.sigcore import Waveform, generate_chirp

S9 = get_profile("s9")
S10 = get_profile("s10")


def sweep_trace(profile, f_start, f_end, duration, snr_db=25, seed=3):
    # drive level below the channel's overload threshold
    chirp = generate_chirp(f_start, f_end, duration, 0.2, 48000)
    cond = ChannelCondition(snr_db=snr_db, noise_seed=seed)
    return apply_channel(chirp, profile, cond)


class TestFindResonanceBand:
    def test_s9_band_recovered(self):
        trace = sweep_trace(S9, 19000.0, 20000.0, 20.0)
        result = find_resonance_band(trace, (19000.0, 20000.0, 20.0),
                                     chirp_start=PAD_SECONDS)
        # 50 Hz/s sweep crosses 12.8 Hz per 0.256 s analysis frame; edges are
        # tagged by frame start, adding up to one 0.064 s hop of extra skew
        assert result.found
        assert result.band_lo == pytest.approx(19500.0, abs=16.0)
        assert result.band_hi == pytest.approx(19660.0, abs=16.0)

    def test_s10_band_recovered(self):
        trace = sweep_trace(S10, 18700.0, 19400.0, 20.0)
        result = find_resonance_band(trace, (18700.0, 19400.0, 20.0),
                                     chirp_start=PAD_SECONDS)
        assert result.found
        assert result.band_lo == pytest.approx(19000.0, abs=12.0)
        assert result.band_hi == pytest.approx(19077.0, abs=12.0)

    def test_out_of_band_chirp_not_found(self):
        chirp = generate_chirp(17000.0, 18000.0, 10.0, 0.5, 48000)
        trace = apply_channel(chirp, S9, ChannelCondition(noise_rms=0.01, noise_seed=1))
        result = find_resonance_band(trace, (17000.0, 18000.0, 10.0),
                                     chirp_start=PAD_SECONDS)
        assert not result.found

    def test_detected_band_contained_in_profile_band(self):
        trace = sweep_trace(S10, 18700.0, 19400.0, 20.0)
        result = find_resonance_band(trace, (18700.0, 19400.0, 20.0),
                                     chirp_start=PAD_SECONDS)
        frame_span = (19400 - 18700) / 20 * 0.256
        assert result.band_lo >= S10.band_lo - frame_span
        assert result.band_hi <= S10.band_hi + frame_span
        assert result.band_lo <= result.peak_response_freq <= result.band_hi

    def test_threshold_monotonicity(self):
        trace = sweep_trace(S9, 19000.0, 20000.0, 20.0)
        loose = find_resonance_band(trace, (19000.0, 20000.0, 20.0),
                                    threshold_db=10.0, chirp_start=PAD_SECONDS)
        tight = find_resonance_band(trace, (19000.0, 20000.0, 20.0),
                                    threshold_db=16.0, chirp_start=PAD_SECONDS)
        assert tight.found
        width = lambda r: r.band_hi - r.band_lo
        assert width(tight) <= width(loose)

    def test_deterministic(self):
        trace = sweep_trace(S9, 19000.0, 20000.0, 20.0)
        a = find_resonance_band(trace, (19000.0, 20000.0, 20.0), chirp_start=PAD_SECONDS)
        b = find_resonance_band(trace, (19000.0, 20000.0, 20.0), chirp_start=PAD_SECONDS)
        assert (a.band_lo, a.band_hi, a.peak_response_freq) == \
               (b.band_lo, b.band_hi, b.peak_response_freq)

    @pytest.mark.parametrize("threshold_db", [float("nan"), float("inf"), 0.0, -3.0])
    def test_unusable_threshold_rejected(self, threshold_db):
        trace = sweep_trace(S10, 18900.0, 19200.0, 2.0)
        with pytest.raises(ValueError, match="threshold_db"):
            find_resonance_band(trace, (18900.0, 19200.0, 2.0), threshold_db=threshold_db)


class TestSweepCsv:
    def test_curve_export(self, tmp_path):
        trace = sweep_trace(S10, 18700.0, 19400.0, 20.0)
        result = find_resonance_band(trace, (18700.0, 19400.0, 20.0),
                                     chirp_start=PAD_SECONDS)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "acoustic_hz,response_db"
        assert len(lines) == len(result.curve_freqs) + 1
