"""The benchmark's own correctness checks on one round of each BER workload.

The modules under perfbench/ are imported as they are. A point the
benchmark expects to be error-free that decodes wrong, or a jammed link
whose BER is not above the workload's bound, fails here as it would fail
the benchmark run's correctness check.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spec  # noqa: E402
import workloads  # noqa: E402

CASES = [(name, seed) for name in sorted(spec.WORKLOADS) if name.startswith("ber_")
         for seed in spec.CHECKED_SEEDS]


@pytest.mark.parametrize("name,seed", CASES, ids=[f"{n}-seed{s}" for n, s in CASES])
def test_one_round_is_correct(name, seed):
    w = workloads.make(name)
    w.setup(seed)
    outcomes = [w.op(i) for i in range(w.round_size)]
    assert [o.error for o in outcomes if o.failed] == []
    ok, note = w.aggregate_check(outcomes)
    assert ok, note
