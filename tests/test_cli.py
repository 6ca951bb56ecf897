"""Command-line pipelines: transmit, simulate, receive, sweep, jam, ber."""

import dataclasses
import json

import numpy as np
import pytest

from gyromodem import cli
from gyromodem.channel import get_profile
from gyromodem.cli import main
from gyromodem.modem_tx import import_wav


def run(*argv):
    return main([str(a) for a in argv])


class TestTransmit:
    def test_text_fits_one_frame(self, tmp_path):
        out = tmp_path / "a.wav"
        assert run("transmit", "--profile", "s10", "--text", "A",
                   "--bit-time", "0.7", "--out", out) == 0
        w = import_wav(out)
        assert w.duration == pytest.approx(17 * 0.7, abs=1e-3)

    def test_bad_payload_length_fails(self, tmp_path):
        out = tmp_path / "bad.wav"
        assert run("transmit", "--profile", "s10", "--payload", "1010",
                   "--out", out) != 0

    def test_zero_filter_cutoff_fails(self, tmp_path):
        out = tmp_path / "a.wav"
        assert run("transmit", "--profile", "s10", "--text", "A",
                   "--filter-cutoff", "0", "--out", out) == 1
        assert not out.exists()

    def test_missing_required_flag_usage_error(self, capsys):
        assert run("transmit", "--profile", "s10") == 2
        assert "usage" in capsys.readouterr().err


class TestConflictingFlags:
    @pytest.mark.parametrize("argv", [
        ("transmit", "--profile", "s10", "--text", "A",
         "--payload", "101100111000", "--out", "a.wav"),
        ("simulate", "--profile", "s10", "--wav", "a.wav", "--snr-db", "20",
         "--distance-cm", "50", "--out", "t.csv"),
        ("spectrogram", "--wav", "a.wav", "--trace", "t.csv", "--out", "s.csv"),
        ("spectrogram", "--out", "s.csv"),
    ], ids=["text-and-payload", "snr-and-distance", "wav-and-trace",
            "neither-wav-nor-trace"])
    def test_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 2
        assert "usage" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestPipeline:
    def test_transmit_simulate_receive(self, tmp_path):
        wav = tmp_path / "a.wav"
        trace = tmp_path / "trace.csv"
        report = tmp_path / "report.csv"
        assert run("transmit", "--profile", "s10", "--text", "A",
                   "--bit-time", "0.7", "--out", wav) == 0
        assert run("simulate", "--profile", "s10", "--wav", wav,
                   "--snr-db", "35", "--seed", "3", "--out", trace) == 0
        assert run("receive", "--profile", "s10", "--bit-time", "0.7",
                   "--trace", trace, "--out", report) == 0
        lines = report.read_text().splitlines()
        payload_rows = [l for l in lines[1:] if l.strip()]
        assert len(payload_rows) == 1
        fields = payload_rows[0].split(",")
        # "A" = 0x41, packed MSB-first and zero-padded to 12 bits
        assert fields[1] == "010000010000"
        assert fields[2].lower() in ("true", "1")

    def test_mfsk32_round_trip(self, tmp_path):
        wav = tmp_path / "a.wav"
        trace = tmp_path / "trace.csv"
        report = tmp_path / "report.csv"
        mod = ("--profile", "s10_mfsk", "--order", "32", "--band", "19000", "19105")
        assert run("transmit", *mod, "--payload", "101100111000", "--out", wav) == 0
        assert run("simulate", "--profile", "s10_mfsk", "--wav", wav,
                   "--out", trace) == 0
        assert run("receive", *mod, "--trace", trace, "--out", report) == 0
        rows = [l for l in report.read_text().splitlines()[1:] if l.strip()]
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert fields[1] == "101100111000" and fields[2] == "1"

    def test_distance_preset_path(self, tmp_path):
        wav = tmp_path / "a.wav"
        trace = tmp_path / "trace.csv"
        report = tmp_path / "report.csv"
        assert run("transmit", "--profile", "s9", "--text", "A",
                   "--out", wav) == 0
        assert run("simulate", "--profile", "s9", "--distance-cm", "0",
                   "--room", "open", "--seed", "1", "--wav", wav,
                   "--out", trace) == 0
        assert run("receive", "--profile", "s9", "--trace", trace,
                   "--out", report) == 0
        rows = [l for l in report.read_text().splitlines()[1:] if l.strip()]
        assert len(rows) == 1 and rows[0].split(",")[1] == "010000010000"


    def test_jammer_longer_than_signal(self, tmp_path):
        wav, jam, trace = tmp_path / "a.wav", tmp_path / "jam.wav", tmp_path / "trace.csv"
        assert run("transmit", "--profile", "s10", "--text", "A", "--out", wav) == 0
        assert run("jam", "--f-min", "19000", "--f-max", "19077", "--max-volume", "0.2",
                   "--duration", import_wav(wav).duration + 2.0, "--seed", "5",
                   "--out", jam) == 0
        assert run("simulate", "--profile", "s10", "--wav", wav, "--jammer-wav", jam,
                   "--snr-db", "20", "--out", trace) == 0


class TestSweep:
    def test_band_survey(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--profile", "s10", "--f-start", "18700",
                   "--f-end", "19400", "--duration", "20", "--snr-db", "25",
                   "--seed", "3", "--out", out) == 0
        assert out.read_text().startswith("acoustic_hz,response_db")


class TestUnusableInput:
    """Inputs the channel cannot use fail with a one-line error naming the field."""

    def test_simulate_nan_snr_fails(self, tmp_path, capsys):
        wav, out = tmp_path / "a.wav", tmp_path / "trace.csv"
        assert run("transmit", "--profile", "s10", "--text", "A", "--out", wav) == 0
        assert run("simulate", "--profile", "s10", "--wav", wav, "--snr-db", "nan",
                   "--out", out) == 1
        assert "snr_db" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_nan_threshold_fails(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--profile", "s10", "--f-start", "18900", "--f-end", "19200",
                   "--duration", "2", "--threshold-db", "nan", "--out", out) == 1
        assert "threshold_db" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["nan", "0"])
    def test_sweep_threshold_checked_before_simulation(self, tmp_path, monkeypatch,
                                                       threshold):
        calls = []
        monkeypatch.setattr(cli, "apply_channel", lambda *args: calls.append(args))
        assert run("sweep", "--profile", "s10", "--f-start", "18900", "--f-end", "19200",
                   "--duration", "2", "--threshold-db", threshold,
                   "--out", tmp_path / "sweep.csv") == 1
        assert calls == []

    @pytest.mark.parametrize("field", ["gyro_max_freq", "response_amplitude"])
    def test_zero_profile_field_fails(self, tmp_path, capsys, field):
        doc = dataclasses.asdict(get_profile("s10"))
        doc.update(name="dead", **{field: 0})
        (tmp_path / "dead.json").write_text(json.dumps(doc))
        wav = tmp_path / "a.wav"
        assert run("transmit", "--profile", "dead", "--profile-dir", tmp_path,
                   "--text", "A", "--out", wav) == 1
        assert field in capsys.readouterr().err
        assert not wav.exists()


class TestJam:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        for out in (a, b):
            assert run("jam", "--f-min", "19000", "--f-max", "19077",
                       "--burst", "1.0", "--max-volume", "0.2",
                       "--duration", "8", "--seed", "5", "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBer:
    def test_deterministic_table(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "profile": "s10",
            "distances_cm": [0],
            "frames_per_point": 2,
        }))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("ber", "--config", cfg, "--seed", "7", "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == \
            "distance_cm,snr_db,ber_fraction,frame_loss_fraction"

    def test_missing_jammer_key_is_a_one_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"profile": "s10", "jammer": {"f_min": 19000}}))
        out = tmp_path / "ber.csv"
        assert run("ber", "--config", cfg, "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: ConfigError: JammerConfig: missing required key(s) f_max\n")
        assert not out.exists()


class TestSpectrogram:
    def test_wav_to_matrix(self, tmp_path):
        wav = tmp_path / "a.wav"
        out = tmp_path / "spec.csv"
        assert run("transmit", "--profile", "s10", "--text", "A",
                   "--bit-time", "0.125", "--out", wav) == 0
        assert run("spectrogram", "--wav", wav, "--fft-size", "1024",
                   "--noverlap", "0", "--out", out) == 0
        first = out.read_text().splitlines()[0]
        assert first.startswith(",") or first[0].isdigit() or first[0] == "t"

    def test_noverlap_defaults_to_half_the_window(self, tmp_path):
        wav = tmp_path / "a.wav"
        assert run("transmit", "--profile", "s10", "--text", "A",
                   "--bit-time", "0.125", "--out", wav) == 0
        outs = {name: tmp_path / f"{name}.csv" for name in
                ("1024", "1024-512", "default", "4096-2048")}
        assert run("spectrogram", "--wav", wav, "--fft-size", "1024",
                   "--out", outs["1024"]) == 0
        assert run("spectrogram", "--wav", wav, "--fft-size", "1024",
                   "--noverlap", "512", "--out", outs["1024-512"]) == 0
        assert run("spectrogram", "--wav", wav, "--out", outs["default"]) == 0
        assert run("spectrogram", "--wav", wav, "--fft-size", "4096",
                   "--noverlap", "2048", "--out", outs["4096-2048"]) == 0
        assert outs["1024"].read_bytes() == outs["1024-512"].read_bytes()
        assert outs["default"].read_bytes() == outs["4096-2048"].read_bytes()
