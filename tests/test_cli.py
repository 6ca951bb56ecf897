"""Command-line pipelines: transmit, simulate, receive, sweep, jam, ber."""

import json

import numpy as np
import pytest

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

    def test_missing_required_flag_usage_error(self, capsys):
        assert run("transmit", "--profile", "s10") == 2
        assert "usage" in capsys.readouterr().err


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


class TestSweep:
    def test_band_survey(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--profile", "s10", "--f-start", "18700",
                   "--f-end", "19400", "--duration", "20", "--snr-db", "25",
                   "--seed", "3", "--out", out) == 0
        assert out.read_text().startswith("acoustic_hz,response_db")


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
