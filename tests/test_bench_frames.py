"""The benchmark's frames workload passes every output check, tight and loose.

The checks live in ``perfbench/workloads.py``; this runs one round of the
smoke-sized workload (d = 4, three POVM kinds) so that tier-1 sees a
tolerance miss that the benchmark would only report as a share.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
def test_frames_round_passes_every_check(seed):
    frames = workloads.Frames(seed, smoke=True, ctx={})
    failed = [
        (op.key, name)
        for op in frames.round(0)
        for name, passed, _exact in op.check(op.run())
        if not passed
    ]
    assert failed == []
