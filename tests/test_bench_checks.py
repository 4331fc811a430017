"""The benchmark's frames and lp workloads pass every output check, tight and loose.

The checks live in ``perfbench/workloads.py``; this runs one round of each
smoke-sized workload (d = 4: three POVM kinds for frames, and the
post-processing, joint-measurement and blur calls on two POVM kinds for
lp) so that tier-1 sees a tolerance miss, or a wrong synthesis, pinching
or infeasible verdict, that the benchmark would only report as a share.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", [workloads.Frames, workloads.Lp], ids=["frames", "lp"])
def test_round_passes_every_check(workload, seed):
    bench = workload(seed, smoke=True, ctx={})
    failed = [
        (op.key, name)
        for op in bench.round(0)
        for name, passed, _exact in op.check(op.run())
        if not passed
    ]
    assert failed == []
