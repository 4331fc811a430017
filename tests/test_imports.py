"""Import cost: only the linear programs load scipy.

The frame math, sampling and most command-line verbs run on numpy alone;
scipy (HiGHS) is imported on the first call of ``postproc.linprog``, the
single entry point every post-processing LP goes through.  Sampling runs
its threads through ``threading``, never ``concurrent.futures``, whose
import pulls in ``logging``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import povmlab
from povmlab import postproc
from povmlab.povm import Observable, spectral_povm
from povmlab.qubit import optimal_four_outcome, sigma_pm
from povmlab.serialize import observable_to_json, operator_to_json, povm_to_json, save_json_file
from povmlab.standard import pauli_observable, sic_povm

SRC = str(Path(povmlab.__file__).resolve().parent.parent)

# Runs in a fresh interpreter: the scipy modules loaded after importing
# the CLI and running four verbs (a two-block simulate among them), then
# after one post-processing LP (the four planar outcomes leave a null
# space of one, so sigma_+ needs the LP).
SCRIPT = """
import json, sys
import povmlab, povmlab.cli
from povmlab.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

sic, a, b, state, out = sys.argv[1:6]
codes = [
    main(["qubit", "optimal", "--theta", "0.7", "--out", out]),
    main(["abspace", "check", "--povm", sic, "--A", a, "--B", b, "--out", out]),
    main(["dual", "--povm", sic, "--out", out]),
    main(["simulate", "--povm", sic, "--state", state, "--x", a, "--n", "100000",
          "--out", out]),
]
after_verbs = scipy_modules()
futures = "concurrent.futures" in sys.modules
from povmlab.postproc import find_post_processing
from povmlab.povm import Observable, spectral_povm
from povmlab.qubit import optimal_four_outcome, sigma_pm
find_post_processing(spectral_povm(Observable(sigma_pm(0.6)[0])), optimal_four_outcome(0.6))
print(json.dumps({"codes": codes, "after_verbs": after_verbs, "futures": futures,
                  "after_lp": scipy_modules()}))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    files = []
    for name, doc in [("sic.json", povm_to_json(sic_povm())),
                      ("a.json", observable_to_json(pauli_observable("x"))),
                      ("b.json", observable_to_json(pauli_observable("y"))),
                      ("state.json", operator_to_json(np.eye(2) / 2.0))]:
        save_json_file(str(tmp / name), doc)
        files.append(str(tmp / name))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *files, str(tmp / "out.json")],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_verbs_load_no_scipy(loaded):
    assert loaded["codes"] == [0, 0, 0, 0]
    assert loaded["after_verbs"] == []


def test_simulate_loads_no_concurrent_futures(loaded):
    assert loaded["codes"][3] == 0
    assert not loaded["futures"]


def test_post_processing_lp_loads_scipy_optimize(loaded):
    assert "scipy.optimize" in loaded["after_lp"]


def test_both_lps_call_the_module_linprog(monkeypatch):
    # the post-processing search and the joint measurement solve the one
    # least-blur LP, and every call goes through postproc.linprog
    calls = []
    original = postproc.linprog

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(postproc, "linprog", counting)
    # the four planar outcomes leave a null space of one, so each least blur
    # runs one LP
    P = optimal_four_outcome(0.6)
    plus, minus = sigma_pm(0.6)
    assert not postproc.find_post_processing(spectral_povm(Observable(plus)), P).feasible
    assert len(calls) == 1
    result = postproc.find_joint_measurement(P, [Observable(plus), Observable(minus)])
    assert result.feasible
    assert len(calls) == 3  # one LP per observable
