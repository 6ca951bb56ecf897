"""Experiment runner, spectrogram export, and throughput accounting."""

import dataclasses
import json
import re
import typing

import numpy as np
import pytest

from gyromodem import modem_rx, modem_tx
from gyromodem.channel import (ChannelCondition, DeviceProfile, apply_channel, get_profile,
                               load_profile)
from gyromodem.countermeasure import JammerConfig
from gyromodem.harness import (
    DB_FLOOR,
    ExperimentConfig,
    demod_config_for,
    effective_data_rate,
    emit_spectrogram,
    load_experiment_config,
    run_ber_experiment,
    run_point,
)
from gyromodem.sigcore import (ConfigError, GyroTrace, Waveform, from_dict, generate_chirp,
                               magnitude_stream)


def read_matrix(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    freqs = np.array([float(v) for v in rows[0][1:]])
    times = np.array([float(r[0]) for r in rows[1:]])
    cells = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return freqs, times, cells


class TestEffectiveDataRate:
    def test_slow_link(self):
        payload_rate, raw_rate = effective_data_rate(0.7)
        assert raw_rate == pytest.approx(1 / 0.7)
        assert payload_rate == pytest.approx(12 / (17 * 0.7 + 0.5))

    def test_fast_link(self):
        payload_rate, raw_rate = effective_data_rate(0.125)
        assert raw_rate == pytest.approx(8.0)
        assert payload_rate == pytest.approx(4.571, abs=0.001)


class TestExperimentConfig:
    def test_zero_frames_rejected(self):
        with pytest.raises(Exception):
            ExperimentConfig(profile="s10", frames_per_point=0)

    def test_unknown_profile_rejected(self):
        cfg = ExperimentConfig(profile="does_not_exist", distances_cm=(0,),
                               frames_per_point=1)
        with pytest.raises(Exception) as err:
            run_ber_experiment(cfg)
        assert "s10" in str(err.value)

    def test_json_round_trip(self, tmp_path):
        doc = {
            "profile": "s9",
            "modulation": "bfsk",
            "bit_time": 0.7,
            "room": "narrow",
            "distances_cm": [100, 200],
            "frames_per_point": 5,
            "seed": 11,
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        cfg = load_experiment_config(path)
        assert cfg.profile == "s9" and cfg.room == "narrow"
        assert cfg.distances_cm == (100.0, 200.0)
        assert cfg.frames_per_point == 5 and cfg.seed == 11

    def test_full_config_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            profile="s10_mfsk", modulation="mfsk", order=32, bit_time=0.5,
            room="narrow", distances_cm=(100.0, 300.0), frames_per_point=4,
            seed=9, mfsk_band=(19010.0, 19100.0), filter_cutoff=21000.0,
            jammer=JammerConfig(f_min=19000.0, f_max=19077.0, T=0.5,
                                max_volume=0.3, seed=2, volume=0.1))
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert load_experiment_config(path) == cfg

    @pytest.mark.parametrize("doc, word", [
        ({"profile": "s10", "frames_per_pont": 3}, "frames_per_pont"),
        ({"profile": "s10", "jammer": {"f_min": 19000, "f_max": 19077,
                                       "max_volum": 0.5}}, "max_volum"),
        ({"profile": "s10", "filter_cutoff": 0}, "filter_cutoff"),
        ({"profile": "s10", "mfsk_band": [19000, 19105, 5]}, "mfsk_band"),
        ({"profile": "s10", "mfsk_band": [19105, 19000]}, "mfsk_band"),
        ({"profile": "s10", "frames_per_point": 1.0}, "frames_per_point"),
        ({"profile": "s10", "bit_time": "0.7"}, "bit_time"),
        ({"profile": "s10", "distances_cm": "50"}, "ExperimentConfig.distances_cm"),
        ({"profile": "s10", "seed": 1.5}, "ExperimentConfig.seed"),
        ({"profile": "s10", "amplitude": "0.5"}, "ExperimentConfig.amplitude"),
        ({"profile": "s10", "jammer": {"f_min": "19000", "f_max": 19077}},
         "JammerConfig.f_min"),
        ({"profile": "s10", "modulation": "qam"}, "modulation"),
        ({"profile": "s10", "order": 4}, "order 2"),
    ], ids=["unknown-key", "unknown-jammer-key", "zero-filter-cutoff",
            "three-band-values", "descending-band", "float-frame-count",
            "string-bit-time", "string-distances", "float-seed", "string-amplitude",
            "string-jammer-f-min", "unknown-modulation", "bfsk-order-4"])
    def test_bad_json_names_the_key(self, tmp_path, doc, word):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=word):
            load_experiment_config(path)


FULL_CONFIG = ExperimentConfig(
    profile="s10_mfsk", modulation="mfsk", order=32, bit_time=0.5, room="narrow",
    distances_cm=(100.0, 300.0), frames_per_point=4, seed=9,
    mfsk_band=(19010.0, 19100.0), filter_cutoff=21000.0,
    jammer=JammerConfig(f_min=19000.0, f_max=19077.0, T=0.5, max_volume=0.3,
                        seed=2, volume=0.1))
VALID = {ExperimentConfig: FULL_CONFIG, JammerConfig: FULL_CONFIG.jammer,
         DeviceProfile: get_profile("s9")}


def wrong_typed_fields():
    """Every field of the JSON-loaded configs, each with True (booleans are
    not numbers) and with a value of another JSON type."""
    for cls in VALID:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            for bad in (True, 1 if hints[f.name] is str else "1"):
                yield pytest.param(cls, f.name, bad, id=f"{cls.__name__}.{f.name}={bad!r}")


class TestFromDict:
    @pytest.mark.parametrize("cls", list(VALID), ids=lambda c: c.__name__)
    def test_json_doc_loads(self, cls):
        doc = json.loads(json.dumps(dataclasses.asdict(VALID[cls])))
        assert from_dict(cls, doc) == VALID[cls]

    @pytest.mark.parametrize("cls, name, bad", wrong_typed_fields())
    def test_wrong_type_names_the_field(self, cls, name, bad):
        doc = dict(dataclasses.asdict(VALID[cls]), **{name: bad})
        with pytest.raises(ConfigError, match=rf"^{cls.__name__}\.{name} "):
            from_dict(cls, doc)

    @pytest.mark.parametrize("cls, doc, missing", [
        (JammerConfig, {"f_min": 19000}, "f_max"),
        (ExperimentConfig, {"seed": 3}, "profile"),
        (DeviceProfile, {"name": "x", "band_lo": 19000.0},
         "band_hi, gyro_max_freq, axis_weights, fsk_pair"),
    ], ids=["jammer", "experiment", "profile"])
    def test_missing_key_names_each_field(self, cls, doc, missing):
        with pytest.raises(ConfigError,
                           match=rf"^{cls.__name__}: missing required key\(s\) {missing}$"):
            from_dict(cls, doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10 ** 400],
                             ids=["NaN", "Infinity", "-Infinity", "huge-integer"])
    @pytest.mark.parametrize("load, doc, key, name", [
        (load_experiment_config, FULL_CONFIG, "bit_time", "ExperimentConfig.bit_time"),
        (load_experiment_config, FULL_CONFIG, "amplitude", "ExperimentConfig.amplitude"),
        (load_experiment_config, FULL_CONFIG, "distances_cm",
         "ExperimentConfig.distances_cm[0]"),
        (load_profile, get_profile("s9"), "band_lo", "DeviceProfile.band_lo"),
    ], ids=["bit_time", "amplitude", "distances_cm[0]", "band_lo"])
    def test_non_finite_number_names_the_field(self, tmp_path, load, doc, key, name, bad):
        doc = dataclasses.asdict(doc)
        doc[key] = [bad, *doc[key][1:]] if key == "distances_cm" else bad
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))  # json writes NaN and Infinity unquoted
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be finite"):
            load(path)


class TestRunBerExperiment:
    def test_high_snr_point_error_free(self):
        prof = get_profile("s10")
        fsk = modem_tx.bfsk_config(*prof.fsk_pair, 0.7)
        rx = demod_config_for(prof, fsk)
        row = run_point(prof, fsk, rx, snr_db=37.0, n_frames=3, seed=1,
                        point_index=0)
        assert row.ber == 0.0 and row.frame_loss == 0.0 and row.frames_synced == 3

    def test_table_shape_and_determinism(self):
        cfg = ExperimentConfig(profile="s10", distances_cm=(0.0,),
                               frames_per_point=2, seed=5)
        a = run_ber_experiment(cfg)
        b = run_ber_experiment(cfg)
        assert len(a.rows) == 1
        assert a.rows[0].snr_db == 37.0
        assert a.rows == b.rows

    def test_csv_layout(self, tmp_path):
        cfg = ExperimentConfig(profile="s10", distances_cm=(0.0,),
                               frames_per_point=2, seed=5)
        table = run_ber_experiment(cfg)
        path = tmp_path / "ber.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "distance_cm,snr_db,ber_fraction,frame_loss_fraction"
        assert len(lines) == 2


class TestPipelineComposition:
    def test_payload_recovery_per_profile(self):
        rng = np.random.default_rng(2026)
        for name in ("s10", "s9", "oneplus7"):
            prof = get_profile(name)
            fsk = modem_tx.bfsk_config(*prof.fsk_pair, 0.7)
            rx = demod_config_for(prof, fsk)
            payloads = [tuple(rng.integers(0, 2, 12).tolist()) for _ in range(10)]
            w = modem_tx.transmit_frames(payloads, fsk, gap=0.5)
            trace = apply_channel(w, prof, ChannelCondition(snr_db=30, noise_seed=8))
            report = modem_rx.demodulate_stream(trace, rx)
            assert [f.payload for f in report.frames] == payloads, name
            assert all(f.parity_valid for f in report.frames), name


def hann_stft_csv(x, fft_size, noverlap, rate):
    """The CSV emit_spectrogram wrote when it called the package's former
    Hann-window stft, kept here as the byte-level reference."""
    hop = fft_size - noverlap
    n_frames = (len(x) - fft_size) // hop + 1
    frames = x[np.arange(fft_size)[None, :] + hop * np.arange(n_frames)[:, None]]
    mags = np.abs(np.fft.rfft(frames * np.hanning(fft_size), axis=1))
    freqs = np.fft.rfftfreq(fft_size, d=1.0 / rate)
    times = hop * np.arange(len(frames)) / rate
    db = 20 * np.log10(np.maximum(mags, 10 ** (DB_FLOOR / 20)))
    lines = ["time_s," + ",".join(f"{f:.3f}" for f in freqs)]
    lines += [f"{t:.6f}," + ",".join(f"{v:.2f}" for v in row) for t, row in zip(times, db)]
    return ("\n".join(lines) + "\n").encode()


class TestEmitSpectrogram:
    @pytest.mark.parametrize("fft_size, noverlap", [(4096, 2048), (1024, 0)])
    def test_wav_bytes_match_hann_reference(self, tmp_path, fft_size, noverlap):
        prof = get_profile("s10")
        w = modem_tx.transmit_frames([(1, 0) * 6], modem_tx.bfsk_config(*prof.fsk_pair, 0.125),
                                     gap=0.0)
        path = tmp_path / "wav.csv"
        emit_spectrogram(w, fft_size, noverlap, path)
        assert path.read_bytes() == hann_stft_csv(w.samples, fft_size, noverlap, 48000)

    def test_trace_bytes_match_hann_reference(self, tmp_path):
        prof = get_profile("s10")
        w = modem_tx.transmit_frames([(1, 0) * 6], modem_tx.bfsk_config(*prof.fsk_pair, 0.7),
                                     gap=0.0)
        trace = apply_channel(w, prof, ChannelCondition(snr_db=20.0, noise_seed=4))
        path = tmp_path / "trace.csv"
        emit_spectrogram(trace, 128, 96, path)
        x = magnitude_stream(trace)
        assert path.read_bytes() == hann_stft_csv(x - x.mean(), 128, 96, 500)

    def test_silence_sits_at_floor(self, tmp_path):
        path = tmp_path / "silence.csv"
        emit_spectrogram(Waveform(np.zeros(48000), 48000), 1024, 0, path)
        _, _, cells = read_matrix(path)
        assert np.all(cells == DB_FLOOR)

    def test_empty_trace_rejected_first(self, tmp_path):
        # no detrend of an empty stream, so no "Mean of empty slice" warning
        with pytest.raises(ValueError, match="empty"):
            emit_spectrogram(GyroTrace.from_axes(np.zeros((0, 3))), 128, 96,
                             tmp_path / "empty.csv")

    def test_chirp_ridge_rises(self, tmp_path):
        path = tmp_path / "chirp.csv"
        w = generate_chirp(2000.0, 20000.0, 2.0, 0.8, 48000)
        emit_spectrogram(w, 1024, 0, path)
        freqs, _, cells = read_matrix(path)
        ridge = freqs[np.argmax(cells, axis=1)]
        assert np.all(np.diff(ridge) >= 0)
        assert ridge[-1] > ridge[0] + 10000

    def test_bfsk_frame_shows_both_tones(self, tmp_path):
        prof = get_profile("s10")
        fsk = modem_tx.bfsk_config(*prof.fsk_pair, 0.125)
        w = modem_tx.transmit_frames([(0, 1) * 6], fsk, gap=0.0)
        path = tmp_path / "frame.csv"
        emit_spectrogram(w, 4096, 0, path)
        freqs, _, cells = read_matrix(path)
        ridge = freqs[np.argmax(cells, axis=1)]
        for tone in prof.fsk_pair:
            assert np.any(np.abs(ridge - tone) <= 48000 / 4096)
