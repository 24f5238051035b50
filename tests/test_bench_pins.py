"""Every benchmark workload's pinned prefix replays bit-exactly.

A change to how trials, permutations or audits draw shows here as well as
in `bench/run.py`, which checks the same digests.
"""

import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", ["birthday-n16", "quartet-n8", "exhaustive"])
def test_the_pinned_prefix_replays(name):
    assert run.pinned_replay_ok(WORKLOADS[name])
