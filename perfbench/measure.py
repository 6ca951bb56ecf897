"""One benchmark run: set-up, timed operations, checks, metrics, records."""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.stats import beta

import hostspeed
import spec
import workloads
from tracing import Tracer

TOP_SHARES = 8  # rows of the self-time table a traced run prints


def _op(w, i):
    t = perf_counter()
    try:
        o = w.op(i)
    except Exception:  # an operation that raises is a failed one; keep going
        n = w.op_frames(i)
        o = workloads.Outcome(frames=n, failed=n, error=traceback.format_exc())
    o.seconds = perf_counter() - t
    return o


def timed_setup(w, seed, speed):
    """(wall seconds, host-adjusted seconds) of one set-up."""
    refs = speed.streak(0)
    t = perf_counter()
    w.setup(seed)
    raw = perf_counter() - t
    return raw, raw * hostspeed.scale(refs + speed.streak(0))


def timed_ops(w, seed, seconds, tracer=None, speed=None, setups=None):
    """Run w.op(0), w.op(1), ... in whole rounds until `seconds` have passed
    and at least w.digest_frames operations are done.

    With a tracer each operation runs twice, untraced and then traced, so
    that each pair shows the tracing overhead. With a HostSpeed, reference
    samples bracket every round and give it a host scale. With a setups
    list, the set-up runs again after the rounds that cross each
    1/w.setup_repeats of the run, so that its samples spread over the run
    like the operations do. Returns (untraced, traced, elapsed seconds,
    host scale of each round)."""
    plain, traced = [], []
    streaks = [speed.streak(0)] if speed else []
    start = perf_counter()
    i = 0
    while i < w.digest_frames or perf_counter() - start < seconds:
        for _ in range(w.round_size):
            plain.append(_op(w, i))
            if tracer is not None:
                tracer.op = f"op{i}"
                if w.sent(i) is not None:
                    tracer.sent = w.sent(i)
                with tracer:
                    traced.append(_op(w, i))
            i += 1
        if speed is not None:
            streaks.append(speed.streak(sum(o.seconds for o in plain[-w.round_size:])))
        if (setups is not None and len(setups) < w.setup_repeats
                and perf_counter() - start >= seconds * len(setups) / w.setup_repeats):
            setups.append(timed_setup(w, seed, speed))
    elapsed = perf_counter() - start
    while setups is not None and len(setups) < w.setup_repeats:
        setups.append(timed_setup(w, seed, speed))
    scales = [hostspeed.scale(a + b) for a, b in zip(streaks, streaks[1:])]
    return plain, traced, elapsed, scales


def frame_ms(outcomes):
    return [1e3 * o.seconds / o.frames for o in outcomes]


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all
    order statistics. A sweep's frame times form one cluster per point, and
    a single order statistic jumps between clusters from run to run."""
    x = np.sort(values)
    n = len(x)
    edges = beta.cdf(np.arange(n + 1) / n, (n + 1) * q, (n + 1) * (1 - q))
    return float(np.dot(np.diff(edges), x))


def timing_metrics(outcomes, round_size, setup_s, scales):
    """setup_s, frames_per_s, frame_ms_p50 and frame_ms_p90, with each
    operation's time multiplied by its round's entry in `scales`."""
    rounds = [outcomes[i:i + round_size] for i in range(0, len(outcomes), round_size)]
    ms, fps = [], []
    for r, k in zip(rounds, scales):
        ms += [k * x for x in frame_ms(r)]
        fps.append(sum(o.frames for o in r) / (k * sum(o.seconds for o in r)))
    return {"setup_s": statistics.median(setup_s),
            # throughput of a whole round, median over the run's rounds
            "frames_per_s": statistics.median(fps),
            "frame_ms_p50": quantile(ms, 0.5),
            "frame_ms_p90": quantile(ms, 0.9)}


def end_to_end(outcomes, round_size, setups, scales):
    """Host-adjusted end-to-end metrics, plus the same figures in raw
    wall-clock time and the host scale of each round."""
    values = timing_metrics(outcomes, round_size, [a for _, a in setups], scales)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = timing_metrics(outcomes, round_size, [r for r, _ in setups], [1.0] * len(scales))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _, _ in spec.END_TO_END}
    return metrics, {"wall_clock": raw, "host_scale_per_round": scales}


def source_sha256() -> str:
    """Hash of the package and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted([*Path("src").rglob("*.py"), *Path("perfbench").glob("*.py")]):
        h.update(str(path).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not Path(".git").exists():
        return None  # the benchmark also runs in plain source checkouts
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or None


def environment(seed, threads):
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
        "seed": seed,
    }


def check_digest(out_dir, workload, seed, src_sha, value):
    """Compare with the digest an earlier run of the same source and seed
    stored; a change is reported and fails the run."""
    path = out_dir / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload} seed={seed} src={src_sha[:16]}"
    before = known.get(key)
    if before is None:
        known[key] = value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(path)
        return True, "first run of this source and seed"
    if before == value:
        return True, "same as the earlier run of this source and seed"
    return False, f"CHANGED from {before} on an earlier run of this source and seed"


def run(name, seed, seconds, traced, threads, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    workloads.quiet_package_warnings()
    env = environment(seed, threads)
    w = workloads.make(name)
    tracer = None
    if traced:
        tracer = Tracer()
        with tracer:
            w.setup(seed)
        setups = []
        plain, outcomes, elapsed, _ = timed_ops(w, seed, seconds, tracer)
        over = statistics.median([b - a for a, b in zip(frame_ms(plain), frame_ms(outcomes))])
        base = statistics.median(frame_ms(plain))
        env["tracing_overhead"] = {"ms_per_frame": over, "share": over / base,
                                   "ops_compared": len(plain)}
        runs = [plain, outcomes]
    else:
        speed = hostspeed.HostSpeed()
        setups = [timed_setup(w, seed, speed)]
        outcomes, _, elapsed, scales = timed_ops(w, seed, seconds, speed=speed,
                                                 setups=setups)
        env["tracing_overhead"] = None  # measured by --trace 1
        runs = [outcomes]

    attempted = sum(o.frames for r in runs for o in r)
    failed = sum(o.failed for r in runs for o in r)
    errors = [o.error for r in runs for o in r if o.failed]
    agg_ok, agg_note = w.aggregate_check([o for r in runs for o in r])
    digests = {workloads.digest(w.digest_lines(r)) for r in runs}
    if len(digests) > 1:
        dig_ok, dig_note = False, f"traced and untraced operations differ: {sorted(digests)}"
    else:
        dig_ok, dig_note = check_digest(out_dir, name, seed, env["source_sha256"],
                                        next(iter(digests)))
    correct = failed == 0 and agg_ok and dig_ok

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "correct": correct, "attempted": attempted, "failed": failed}
    extra = {"ops": len(outcomes), "elapsed_s": elapsed, "setup_samples_s": setups,
             "op_seconds": [o.seconds for o in outcomes],
             "digest": sorted(digests)[0], "digest_note": dig_note,
             "failed_frac": failed / attempted if attempted else 0.0}
    if isinstance(w, workloads.RxLongWorkload):
        extra.update(w.rx_seconds(outcomes))
    if isinstance(w, workloads.BerWorkload):
        extra["ber_table"] = w.table(outcomes)
    if agg_note:
        extra["aggregate_check"] = agg_note

    if traced:
        names = [n for n, *_ in spec.PER_LAYER]
        units = {n: u for n, u, *_ in spec.PER_LAYER}
        values = tracer.per_layer(names)
        record["metrics"] = {n: {"value": values[n], "unit": units[n]} for n in names}
        ops = {f"op{i}" for i in range(len(outcomes))}
        extra["shares"] = tracer.shares(ops)
        by_module = {}
        for n, _, f in extra["shares"]:
            by_module[n.split(".")[0]] = by_module.get(n.split(".")[0], 0.0) + f
        extra["module_shares"] = sorted(by_module.items(), key=lambda kv: -kv[1])
        extra["absent"] = tracer.absent
        trace_path = out_dir / f"trace-{name}-seed{seed}.json"
        trace_path.write_text(json.dumps({
            "workload": name, "seed": seed, "environment": env,
            "counts": dict(tracer.counts), "absent": tracer.absent,
            "per_layer": {n: {"value": values[n], "unit": u, "moves": moves}
                          for n, u, _, moves in spec.PER_LAYER},
            "shares": extra["shares"],
            "spans": tracer.dump()}))
        extra["trace_file"] = str(trace_path)
    else:
        record["metrics"], timing = end_to_end(outcomes, w.round_size, setups, scales)
        extra.update(timing)
    record["details"] = extra
    record["environment"] = env
    with (out_dir / "results.jsonl").open("a") as fp:
        fp.write(json.dumps(record) + "\n")
    report(record, errors)
    return record


def report(record, errors):
    d, env = record["details"], record["environment"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{d['ops']} ops in {d['elapsed_s']:.2f} s, correct={record['correct']}")
    for name, m in record["metrics"].items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    if "wall_clock" in d:
        print("  host-adjusted; in wall-clock time: " + ", ".join(
            f"{k} {v:.6g}" for k, v in d["wall_clock"].items())
            + f"; host scale {statistics.median(d['host_scale_per_round']):.3f}")
    print(f"  failed_frac {d['failed_frac']:.6g} ({record['failed']}/{record['attempted']})")
    for key in ("rx_s_10f", "rx_s_40f", "rx_s_160f"):
        if key in d:
            print(f"  {key} {d[key]:.4f} s (median decode time)")
    if "aggregate_check" in d:
        print(f"  {d['aggregate_check']}")
    print(f"  digest {d['digest']}: {d['digest_note']}")
    if "shares" in d:
        print("  self time, share of the timed operations:")
        for n, s, f in d["shares"][:TOP_SHARES]:
            print(f"    {n:36s} {s:9.3f} s {100 * f:6.1f}%")
        print("  by module: " + ", ".join(f"{m} {100 * f:.1f}%" for m, f in d["module_shares"]))
        if d["absent"]:
            print(f"  absent (reported as 0): {', '.join(d['absent'])}")
        o = env["tracing_overhead"]
        print(f"  tracing overhead {o['ms_per_frame']:+.3f} ms/frame "
              f"({100 * o['share']:+.1f}%) over {o['ops_compared']} ops")
    print("  env " + json.dumps({k: v for k, v in env.items() if k != "tracing_overhead"}))
    for e in errors[:3]:
        print(f"failure: {e.strip()}", file=sys.stderr)
