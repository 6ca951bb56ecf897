"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source for BENCHMARK.json (``python3
perfbench/run.py --manifest`` rewrites it) and for the metric lists the
runner reports.
"""

RUN_SECONDS = 15

# Seeds on which every correctness check has been run; any other seed must
# pass them too.
CHECKED_SEEDS = (1, 2)

# why each workload is here, and the layer expected to do most of its work
WORKLOADS = {
    "ber_bfsk_open": {
        "why": "criterion-3 B-FSK sweep, oneplus7/s9/s10, open room 0-200 cm; "
               "gyro-ceiling fold on oneplus7/s9, full sigma bisection at <=10 dB",
        "hot": "channel (~76% of a frame)",
    },
    "ber_mfsk32_narrow": {
        "why": "criterion-5 32-FSK sweep, s10_mfsk, narrow room 100-600 cm; "
               "where an M-ary matched filter must show its gain",
        "hot": "modem_rx._goertzel_energy (~53%)",
    },
    "ber_jammed": {
        "why": "criterion-7 s10 link at 30 dB, full-volume in-band jammer: two "
               "_translate calls, superpose, _saturate overload per frame",
        "hot": "channel, countermeasure",
    },
    "rx_long": {
        "why": "decode 10/40/160-frame B-FSK traces (s10, 25 dB) built in set-up; "
               "is receiver time linear in trace length?",
        "hot": "modem_rx; channel in set-up",
    },
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression. The
# same frame on a shared 2-vCPU host varies by +-25% from second to second,
# so the timings get the widest bound BENCHMARK.json allows.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("frames_per_s", "1/s", "higher", 0.25),
    ("frame_ms_p50", "ms", "lower", 0.25),
    ("frame_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better, which end-to-end metric it should move, on which workload)
_FRAME_MIX = ("frames_per_s on ber_bfsk_open and ber_jammed; setup_s and "
              "peak_rss_mb on rx_long; little on ber_mfsk32_narrow")
_RX = ("frames_per_s on ber_mfsk32_narrow; frames_per_s and frame_ms_p90 on "
       "rx_long; ~14% of a ber_bfsk_open frame")
PER_LAYER = (
    *[(f"channel.{fn}.{part}", "count" if part == "calls" else "s", "lower", _FRAME_MIX)
      for fn in ("apply_channel", "_translate", "_calibrate_sigma",
                 "_shaped_noise", "superpose")
      for part in ("calls", "s", "self_s")],
    ("channel.audio_samples_in", "count", "lower", "explains channel time; moves nothing itself"),
    ("channel.leakage_limited", "count", "lower", "explains _calibrate_sigma early returns"),
    ("channel.jammer_clipped", "count", "lower", "explains ber_jammed overload; moves nothing itself"),
    *[(f"modem_rx.{fn}.{part}", "count" if part == "calls" else "s", "lower", _RX)
      for fn, parts in (("demodulate_stream", ("calls", "s", "self_s")),
                        ("_sync_candidate", ("calls", "s")),
                        ("_goertzel_energy", ("calls", "s")),
                        ("measure_snr", ("calls", "s", "self_s")))
      for part in parts],
    ("modem_rx.sync_count", "count", "lower", "read from RxReport"),
    ("modem_rx.lost_sync_count", "count", "lower", "read from RxReport"),
    ("modem_rx.frames_correct", "count", "higher", "decoded payloads equal to the sent ones"),
    ("modem_rx.sync_precision", "ratio", "higher", "frames_correct / sync_count"),
    *[(f"modem_tx.transmit_frames.{part}", "count" if part == "calls" else "s", "lower",
       "~9% of a ber_bfsk_open frame") for part in ("calls", "s", "self_s")],
    ("modem_tx.audio_samples", "count", "lower", "explains modem_tx and channel time"),
    *[(f"countermeasure.jam_waveform.{part}", "count" if part == "calls" else "s", "lower",
       "frames_per_s on ber_jammed") for part in ("calls", "s", "self_s")],
    ("sigcore.stft.calls", "count", "lower", "receiver and SNR estimator spectra"),
    ("sigcore.stft.s", "s", "lower", "receiver and SNR estimator spectra"),
    ("framing.decode_frame.calls", "count", "lower", "a count only"),
    *[(f"harness.run_point.{part}", "count" if part == "calls" else "s", "lower",
       "harness self time; run_point.s is the whole frame")
      for part in ("calls", "s", "self_s")],
)


def manifest() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": f"{w['why']}; hot: {w['hot']}; checked on "
                       f"seeds {', '.join(map(str, CHECKED_SEEDS))}"}
                      for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }
