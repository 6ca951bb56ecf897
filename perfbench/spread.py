"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each workload and prints, per metric,
the median and the distance between the first and third quartile as a
share of the median, next to the metric's bound. Run from the repository
root:

    python3 perfbench/spread.py --workloads ber_bfsk_open,rx_long --seeds 1-10
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

RUN = [sys.executable, str(Path(__file__).with_name("run.py"))]


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = p.parse_args(argv)
    worst = 0.0
    for name in args.workloads.split(","):
        values = {m: [] for m, *_ in spec.END_TO_END}
        start = time.perf_counter()
        for seed in args.seeds:
            done = subprocess.run([*RUN, "--workload", name, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", "0"],
                                  capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: NOT CORRECT\n{done.stdout}{done.stderr}")
                return 1
            for m in values:
                values[m].append(result["metrics"][m]["value"])
        print(f"{name}: {(time.perf_counter() - start) / len(args.seeds):.1f} s "
              f"wall per run")
        for m, unit, _, bound in spec.END_TO_END:
            v = values[m]
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med
            if m != "setup_s":
                worst = max(worst, share / bound)
            print(f"{name:18s} {m:13s} median {med:10.4f} {unit:4s} spread {share:7.2%} "
                  f"bound {bound:.0%}  {'ok' if share <= bound / 3 else 'WIDE'}  "
                  f"[{' '.join(f'{x:.4g}' for x in v)}]")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
