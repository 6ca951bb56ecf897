"""Command-line front end: transmit / simulate / receive / sweep / jam / ber."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import calibration, channel, countermeasure, framing, harness, modem_rx, modem_tx
from .channel import ChannelCondition, apply_channel, get_preset, get_profile
from .modem_tx import export_wav, import_wav, transmit_frames
from .sigcore import DEFAULT_AUDIO_RATE, generate_chirp


def _parse_payloads(args) -> list:
    if args.text is not None:
        return framing.segment_payloads(args.text.encode("utf-8"))
    bits = [int(c) for c in args.payload if c in "01"]
    n = framing.PAYLOAD_BITS
    if len(bits) != len(args.payload) or len(bits) % n:
        raise ValueError(f"--payload must be 0/1 characters, a multiple of {n} bits")
    return [tuple(bits[i:i + n]) for i in range(0, len(bits), n)]


def _experiment_config(args) -> harness.ExperimentConfig:
    """The modulation flags as the harness's config, so both pick tones alike."""
    return harness.ExperimentConfig(
        profile=args.profile, modulation="bfsk" if args.order == 2 else "mfsk",
        order=args.order, bit_time=args.bit_time, amplitude=args.amplitude,
        mfsk_band=tuple(args.band))


def cmd_transmit(args) -> int:
    profile = get_profile(args.profile, args.profile_dir)
    fsk = harness.fsk_config_for(profile, _experiment_config(args))
    wave = transmit_frames(_parse_payloads(args), fsk, gap=args.gap,
                           sample_rate=args.sample_rate)
    if args.filter_cutoff is not None:
        wave = countermeasure.lowpass(wave, args.filter_cutoff)
    export_wav(wave, args.out)
    print(f"wrote {args.out}: {wave.duration:.3f}s at {wave.sample_rate} Hz")
    return 0


def cmd_simulate(args) -> int:
    profile = get_profile(args.profile, args.profile_dir)
    wave = import_wav(args.wav)
    if args.distance_cm is not None:
        snr = channel.distance_to_snr(get_preset(args.profile, args.room),
                                      args.distance_cm)
    else:
        snr = args.snr_db
    jam = import_wav(args.jammer_wav) if args.jammer_wav else None
    cond = ChannelCondition(snr_db=snr, noise_seed=args.seed, jammer=jam)
    trace = apply_channel(wave, profile, cond)
    channel.write_trace_csv(trace, args.out)
    print(f"wrote {args.out}: {len(trace)} samples at {trace.sample_rate} Hz"
          f" (snr={'off' if snr is None else snr})")
    return 0


def cmd_receive(args) -> int:
    profile = get_profile(args.profile, args.profile_dir)
    trace = channel.read_trace_csv(args.trace)
    fsk = harness.fsk_config_for(profile, _experiment_config(args))
    rxcfg = harness.demod_config_for(profile, fsk)
    report = modem_rx.demodulate_stream(trace, rxcfg)
    modem_rx.report_to_csv(report, args.out)
    for d in report.diagnostics:
        print(f"note: {d}", file=sys.stderr)
    print(f"wrote {args.out}: {len(report.frames)} frame(s), "
          f"{report.sync_count} sync(s)")
    return 0


def cmd_sweep(args) -> int:
    profile = get_profile(args.profile, args.profile_dir)
    calibration.check_threshold(args.threshold_db)
    chirp = generate_chirp(args.f_start, args.f_end, args.duration,
                           args.amplitude, args.sample_rate)
    cond = ChannelCondition(snr_db=args.snr_db, noise_seed=args.seed)
    trace = apply_channel(chirp, profile, cond)
    result = calibration.find_resonance_band(
        trace, (args.f_start, args.f_end, args.duration),
        threshold_db=args.threshold_db, chirp_start=channel.PAD_SECONDS)
    calibration.write_sweep_csv(result, args.out)
    if result.found:
        print(f"resonance band: {result.band_lo:.1f} - {result.band_hi:.1f} Hz "
              f"(peak {result.peak_response_freq:.1f} Hz); curve in {args.out}")
    else:
        print("no resonance detected")
    return 0


def cmd_jam(args) -> int:
    cfg = countermeasure.JammerConfig(
        f_min=args.f_min, f_max=args.f_max, T=args.burst,
        max_volume=args.max_volume, seed=args.seed,
        total_duration=args.duration)
    export_wav(countermeasure.jam_waveform(cfg, args.sample_rate), args.out)
    print(f"wrote {args.out}: {args.duration}s jammer over "
          f"[{args.f_min}, {args.f_max}] Hz")
    return 0


def cmd_ber(args) -> int:
    cfg = harness.load_experiment_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    table = harness.run_ber_experiment(cfg, args.profile_dir)
    table.to_csv(args.out)
    for row in table.rows:
        print(f"{row.distance_cm:g} cm  snr={row.snr_db:g} dB  "
              f"ber={row.ber:.4f}  loss={row.frame_loss:.4f}")
    return 0


def cmd_spectrogram(args) -> int:
    if args.wav is not None:
        source = import_wav(args.wav)
    else:
        source = channel.read_trace_csv(args.trace)
    noverlap = args.fft_size // 2 if args.noverlap is None else args.noverlap
    harness.emit_spectrogram(source, args.fft_size, noverlap, args.out)
    print(f"wrote {args.out}")
    return 0


def _add_common_tx(p):
    p.add_argument("--profile", required=True)
    p.add_argument("--profile-dir", default=None)
    p.add_argument("--bit-time", type=float, default=harness.ExperimentConfig.bit_time,
                   dest="bit_time")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--band", type=float, nargs=2,
                   default=harness.ExperimentConfig.mfsk_band,
                   help="tone band for orders above 2")
    p.add_argument("--amplitude", type=float, default=modem_tx.DEFAULT_AMPLITUDE)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gyromodem",
        description="FSK modem and channel simulator for the ultrasonic "
                    "speaker-to-gyroscope covert channel")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transmit", help="payload/text -> WAV")
    _add_common_tx(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--text")
    g.add_argument("--payload", help="bit string, multiple of 12 bits")
    p.add_argument("--gap", type=float, default=modem_tx.DEFAULT_FRAME_GAP)
    p.add_argument("--filter-cutoff", type=float, default=None,
                   dest="filter_cutoff")
    p.add_argument("--sample-rate", type=int, default=DEFAULT_AUDIO_RATE,
                   dest="sample_rate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transmit)

    p = sub.add_parser("simulate", help="WAV + profile + condition -> trace CSV")
    p.add_argument("--profile", required=True)
    p.add_argument("--profile-dir", default=None)
    p.add_argument("--wav", required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--snr-db", type=float, default=None, dest="snr_db")
    g.add_argument("--distance-cm", type=float, default=None, dest="distance_cm")
    p.add_argument("--room", default="open")
    p.add_argument("--jammer-wav", default=None, dest="jammer_wav")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("receive", help="trace CSV -> frame report CSV")
    _add_common_tx(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_receive)

    p = sub.add_parser("sweep", help="chirp + simulate + band detection")
    p.add_argument("--profile", required=True)
    p.add_argument("--profile-dir", default=None)
    p.add_argument("--f-start", type=float, required=True, dest="f_start")
    p.add_argument("--f-end", type=float, required=True, dest="f_end")
    p.add_argument("--duration", type=float, default=20.0)
    p.add_argument("--amplitude", type=float, default=0.2)
    p.add_argument("--snr-db", type=float, default=None, dest="snr_db")
    p.add_argument("--threshold-db", type=float,
                   default=calibration.DEFAULT_THRESHOLD_DB,
                   dest="threshold_db")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-rate", type=int, default=DEFAULT_AUDIO_RATE,
                   dest="sample_rate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("jam", help="random in-band jammer -> WAV")
    p.add_argument("--f-min", type=float, required=True, dest="f_min")
    p.add_argument("--f-max", type=float, required=True, dest="f_max")
    jam_defaults = countermeasure.JammerConfig
    p.add_argument("--burst", type=float, default=jam_defaults.T,
                   help="max burst/gap duration (seconds)")
    p.add_argument("--max-volume", type=float, default=jam_defaults.max_volume,
                   dest="max_volume")
    p.add_argument("--duration", type=float, default=jam_defaults.total_duration)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-rate", type=int, default=DEFAULT_AUDIO_RATE,
                   dest="sample_rate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_jam)

    p = sub.add_parser("ber", help="experiment config JSON -> BER table CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--profile-dir", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ber)

    p = sub.add_parser("spectrogram", help="WAV or trace CSV -> dB matrix CSV")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--wav")
    g.add_argument("--trace")
    p.add_argument("--fft-size", type=int, default=4096, dest="fft_size")
    p.add_argument("--noverlap", type=int, default=None,
                   help="default: half of --fft-size")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrogram)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # one-line machine-readable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
