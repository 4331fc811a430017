"""The benchmark's frames, lp and sampling workloads pass every output check, tight and loose.

The checks live in ``perfbench/workloads.py``; this runs one round of each
smoke-sized workload (d = 4: three POVM kinds for frames, and the
post-processing, joint-measurement and blur calls on two POVM kinds for
lp; for sampling, 2e4 draws at d = 2, N = 4, whole and chunked) so that
tier-1 sees a tolerance miss, a wrong synthesis, pinching or infeasible
verdict, or counts that depend on the chunking, that the benchmark would
only report as a share.
The lp checks also run on the first instance of the largest class
(d = 6, N = 54), where the LPs over the null space of V are the largest.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", [workloads.Frames, workloads.Lp, workloads.Sampling],
                         ids=["frames", "lp", "sampling"])
def test_round_passes_every_check(workload, seed):
    assert failed_checks(workload(seed, smoke=True, ctx={}).round(0)) == []


@pytest.mark.parametrize("seed", [1, 2])
def test_largest_lp_class_passes_every_check(seed):
    ops = [op for op in workloads.Lp(seed, smoke=False, ctx={}).round(0)
           if op.key.startswith("d6/over/") and op.key.endswith("#0")]
    assert len(ops) == 4  # feasible, infeasible, joint and blur
    assert failed_checks(ops) == []


def failed_checks(ops):
    return [
        (op.key, name)
        for op in ops
        for name, passed, _exact in op.check(op.run())
        if not passed
    ]
