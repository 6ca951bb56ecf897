"""Seeded benchmark for gyromodem.

Run from the repository root; the package is imported from ./src:

    python3 perfbench/run.py --workload ber_bfsk_open --seed 1 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and the tracing overhead). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Each result, with
its environment record, is appended to perfbench/out/results.jsonl; a
traced run also writes its spans to perfbench/out/trace-<workload>-seed<n>.json.

    python3 perfbench/run.py --manifest     # rewrite BENCHMARK.json from spec.py
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import spec

# BLAS/OpenMP pool size, fixed before numpy loads; one process, one thread
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SRC = Path("src")
OUT = Path("perfbench/out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=spec.CHECKED_SEEDS[0])
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--manifest", action="store_true",
                   help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if not args.manifest and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.manifest:
        Path("BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if not (SRC / "gyromodem" / "__init__.py").is_file():
        print("perfbench: no src/gyromodem in the working directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC.resolve()))
    import gyromodem
    if SRC.resolve() not in Path(gyromodem.__file__).resolve().parents:
        print(f"perfbench: imported gyromodem from {gyromodem.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from measure import run
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), THREADS, OUT)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
