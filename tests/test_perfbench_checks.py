"""The benchmark's own correctness checks on each workload.

The modules under perfbench/ are imported as they are. A point the
benchmark expects to be error-free that decodes wrong, a jammed link whose
BER is not above the workload's bound, or a long trace that does not decode
to the payloads sent, fails here as it would fail the benchmark run's
correctness check. The BER table (on rx_long, the decoded payloads) of a
run's first digest_frames operations must hash to the digest logged for its
seed.
"""

import sys
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spec  # noqa: E402
import workloads  # noqa: E402

CASES = [(name, seed) for name in sorted(spec.WORKLOADS) for seed in spec.CHECKED_SEEDS]
IDS = [f"{n}-seed{s}" for n, s in CASES]

# perfbench/run.py digests, logged before the channel's front end was rewritten
LOGGED_DIGESTS = {
    ("ber_bfsk_open", 1): "b03261824cf7e9fc",
    ("ber_bfsk_open", 2): "802b133d878e3bb5",
    ("ber_mfsk32_narrow", 1): "924a9d3692d0d91f",
    ("ber_mfsk32_narrow", 2): "924a9d3692d0d91f",
    ("ber_jammed", 1): "0b20ec3e71c58688",
    ("ber_jammed", 2): "1763c0f1f921c84a",
    # the payloads decoded from the 10-, 40- and 160-frame traces
    ("rx_long", 1): "b970b1a8844d55f7",
    ("rx_long", 2): "2a788913dc2f5b4e",
}


@lru_cache(maxsize=None)
def digest_run(name, seed):
    """The workload after set-up, and its first digest_frames operations."""
    w = workloads.make(name)
    w.setup(seed)
    return w, [w.op(i) for i in range(w.digest_frames)]


@pytest.mark.parametrize("name,seed", CASES, ids=IDS)
def test_one_round_is_correct(name, seed):
    w, outcomes = digest_run(name, seed)
    outcomes = outcomes[:w.round_size]
    assert [o.error for o in outcomes if o.failed] == []
    ok, note = w.aggregate_check(outcomes)
    assert ok, note


@pytest.mark.parametrize("name,seed", CASES, ids=IDS)
def test_digest_matches_logged(name, seed):
    w, outcomes = digest_run(name, seed)
    assert [o.error for o in outcomes if o.failed] == []
    assert workloads.digest(w.digest_lines(outcomes)) == LOGGED_DIGESTS[name, seed]
