"""Import cost: only the linear programs load scipy, and of it only HiGHS's compiled core.

The frame math, sampling and most command-line verbs run on numpy alone.
The first call of ``postproc.linprog``, the single entry point every
post-processing LP goes through, loads the extension
``scipy.optimize._highspy._core`` by itself, never the ``scipy.optimize``
package with the ``scipy.linalg`` and ``scipy.sparse`` its init imports.
That one module object serves both orders of a povmlab LP and a later or
earlier ``scipy.optimize`` import, and the first LPs of several threads.
Sampling runs its threads through ``threading``, never
``concurrent.futures``, whose import pulls in ``logging``.  The package's
``__init__`` imports no submodule: ``__all__`` is read from its one
name -> module table, each name is loaded on first access, and a verb
loads only the modules it runs.
"""

import ast
import importlib
import importlib.machinery
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
TESTS = str(Path(__file__).resolve().parent)

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
                  "after_lp": scipy_modules(),
                  "futures_after_lp": "concurrent.futures" in sys.modules}))
"""

CORE = "scipy.optimize._highspy._core"

# Runs in a fresh interpreter: a povmlab least blur and the reference
# least blur of tests/helpers.py (scipy.optimize.linprog on the full LP)
# in the order argv[1] names, then which core each of them used.
ORDER_SCRIPT = """
import json, sys
from helpers import reference_least_blur
from povmlab import postproc
from povmlab.povm import Observable, spectral_povm
from povmlab.qubit import optimal_four_outcome, sigma_pm

P, Q = optimal_four_outcome(0.6), spectral_povm(Observable(sigma_pm(0.6)[0]))
runs = {"povmlab": lambda: postproc.least_blur(P, Q).visibility,
        "scipy": lambda: reference_least_blur(P, Q)}
lam = {name: runs[name]() for name in sys.argv[1].split(",")}
from scipy.optimize._highspy import _core, _highs_wrapper
core = sys.modules["%s"]
print(json.dumps({"lam": repr(lam["povmlab"]), "reference": float(lam["scipy"]),
                  "one_core": _core is core and _highs_wrapper._h is core
                              and postproc._highs_core() is core}))
""" % CORE

# Runs in a fresh interpreter: four threads start the process's first LP
# together, then one thread repeats it.
THREADS_SCRIPT = """
import json, sys, threading
from povmlab import postproc
from povmlab.povm import Observable, spectral_povm
from povmlab.qubit import optimal_four_outcome, sigma_pm

P, Q = optimal_four_outcome(0.6), spectral_povm(Observable(sigma_pm(0.6)[0]))
barrier, lams, errors = threading.Barrier(4), [], []

def first_lp():
    barrier.wait()
    try:
        lams.append(repr(postproc.least_blur(P, Q).visibility))
    except Exception as exc:
        errors.append(repr(exc))

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=first_lp) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
print(json.dumps({"alive": sum(t.is_alive() for t in threads), "errors": errors, "lams": lams,
                  "sequential": repr(postproc.least_blur(P, Q).visibility),
                  "one_core": postproc._highs_core() is sys.modules["%s"]}))
""" % CORE

# Runs in a fresh interpreter: the core's first load fails, and the next
# LP, max x over 0 <= x <= 1 subject to x <= 0.5, loads it again.
FAILED_LOAD_SCRIPT = """
import importlib.machinery, json, sys
from povmlab import postproc

loader = importlib.machinery.ExtensionFileLoader
exec_module = loader.exec_module

def failing(self, module):
    raise RuntimeError("failed on purpose")

loader.exec_module = failing
try:
    postproc.linprog([-1.0], (0.0, 1.0), [0, 1], [0], [1.0], [-1.0], [0.5])
except RuntimeError as exc:
    raised = str(exc)
left = "%s" in sys.modules
loader.exec_module = exec_module
res = postproc.linprog([-1.0], (0.0, 1.0), [0, 1], [0], [1.0], [-1.0], [0.5])
print(json.dumps({"raised": raised, "left": left, "fun": res.fun}))
""" % CORE


def run_fresh(script, *args):
    """The JSON last line that ``script`` prints in a fresh interpreter run from the sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, TESTS, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The SIC POVM, two observables, a state and an output path, as files."""
    tmp = tmp_path_factory.mktemp("imports")
    paths = []
    for name, doc in [("sic.json", povm_to_json(sic_povm())),
                      ("a.json", observable_to_json(pauli_observable("x"))),
                      ("b.json", observable_to_json(pauli_observable("y"))),
                      ("state.json", operator_to_json(np.eye(2) / 2.0))]:
        save_json_file(str(tmp / name), doc)
        paths.append(str(tmp / name))
    return [*paths, str(tmp / "out.json")]


@pytest.fixture(scope="module")
def loaded(files):
    return run_fresh(SCRIPT, *files)


def test_cli_verbs_load_no_scipy(loaded):
    assert loaded["codes"] == [0, 0, 0, 0]
    assert loaded["after_verbs"] == []


def test_simulate_loads_no_concurrent_futures(loaded):
    assert loaded["codes"][3] == 0
    assert not loaded["futures"]


def test_post_processing_lp_loads_only_the_highs_core(loaded):
    assert CORE in loaded["after_lp"]
    assert not {"scipy.optimize", "scipy.linalg", "scipy.sparse"} & set(loaded["after_lp"])
    assert not loaded["futures_after_lp"]


def test_either_import_order_shares_one_core():
    # pybind11 cannot initialize the core twice: whichever of povmlab and
    # scipy.optimize loads it first, the other must reuse that module
    first, second = (run_fresh(ORDER_SCRIPT, order) for order in ["povmlab,scipy", "scipy,povmlab"])
    assert first["one_core"] and second["one_core"]
    assert first["lam"] == second["lam"] == repr(postproc.least_blur(
        optimal_four_outcome(0.6), spectral_povm(Observable(sigma_pm(0.6)[0]))).visibility)
    assert first["reference"] == second["reference"]
    assert abs(float(first["lam"]) - first["reference"]) <= 1e-9


def test_first_lp_from_four_threads_loads_one_core():
    got = run_fresh(THREADS_SCRIPT)
    assert got["alive"] == 0 and got["errors"] == []
    assert got["lams"] == [got["sequential"]] * 4
    assert got["one_core"]


def test_failed_core_load_leaves_no_module_behind():
    got = run_fresh(FAILED_LOAD_SCRIPT)
    assert got["raised"] == "failed on purpose"
    assert not got["left"]
    assert got["fun"] == -0.5


def test_loaded_core_is_reused_without_a_lookup(monkeypatch):
    lp = ([-1.0], (0.0, 1.0), [0, 1], [0], [1.0], [-1.0], [0.5])
    postproc.linprog(*lp)  # loads the core unless an earlier test did

    def no_lookup(*args, **kwargs):
        raise AssertionError("the core was looked up again")

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_lookup)
    assert postproc.linprog(*lp).fun == -0.5


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


def test_all_lists_every_import_once():
    # a deleted function cannot leave a stale export, nor a new one go unlisted
    tree = ast.parse(Path(povmlab.__file__).read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["_EXPORTS"])
    names = [key.value for key in table.keys]
    assert len(names) == len(set(names))  # a dict literal keeps a repeated key silently
    assert [name for name in povmlab.__all__ if not hasattr(povmlab, name)] == []
    assert sorted(povmlab.__all__) == sorted([*names, "__version__"])
    assert set(povmlab.__all__) <= set(dir(povmlab))  # a lazy name is listed, loaded or not
    for name, module in povmlab._EXPORTS.items():
        assert getattr(povmlab, name) is getattr(
            importlib.import_module(f"povmlab.{module}"), name), name


# Runs in a fresh interpreter: the optional povmlab modules loaded after
# importing the CLI, after three verbs that need none of them, after a
# post-processing check, and after the two verbs that resolve an ensemble
# preset; then whether a star import binds every name.
LAZY_SCRIPT = """
import json, sys
import povmlab.cli
from povmlab.cli import main

OPTIONAL = ["povmlab." + m
            for m in ("postproc", "processing", "montecarlo", "abspace", "qubit", "standard")]

def optional_modules():
    return [m for m in OPTIONAL if m in sys.modules]

sic, a, out = sys.argv[1:4]
after_import = optional_modules()
codes = [main(["validate", sic, "--out", out]),
         main(["infocheck", "--povm", sic, "--out", out]),
         main(["dual", "--povm", sic, "--out", out])]
after_verbs = optional_modules()
codes.append(main(["postproc", "check", "--q", sic, "--p", sic, "--out", out]))
after_check = optional_modules()
codes += [main(["optimal-dual", "--povm", sic, "--ensemble", "six-state", "--out", out]),
          main(["min-error", "--povm", sic, "--ensemble", "six-state", "--x", a, "--out", out])]
after_ensemble = optional_modules()
from povmlab import *
print(json.dumps({"codes": codes, "after_import": after_import, "after_verbs": after_verbs,
                  "after_check": after_check, "after_ensemble": after_ensemble,
                  "unbound": [n for n in povmlab.__all__
                              if globals().get(n, None) is not getattr(povmlab, n)]}))
"""


def test_cli_verbs_load_only_the_modules_they_run(files):
    sic, a, out = files[0], files[1], files[-1]
    got = run_fresh(LAZY_SCRIPT, sic, a, out)
    assert got["codes"] == [0] * 6
    assert got["after_import"] == []
    assert got["after_verbs"] == []
    assert got["after_check"] == ["povmlab.postproc"]  # OutsideSpanError lives in hs
    # the Pauli matrices of the presets live in standard, not in qubit
    assert got["after_ensemble"] == ["povmlab.postproc", "povmlab.processing", "povmlab.standard"]
    assert got["unbound"] == []


# Runs in a fresh interpreter: the povmlab modules loaded after the two
# qubit verbs, which read an ensemble but form no dual.
QUBIT_SCRIPT = """
import json, sys
from povmlab.cli import main

out = sys.argv[1]
codes = [main(["qubit", "optimal", "--theta", "0.7", "--out", out]),
         main(["qubit", "sweep", "--thetas", "0.3:1.2:3", "--out", out])]
print(json.dumps({"codes": codes,
                  "loaded": sorted(m for m in sys.modules if m.startswith("povmlab."))}))
"""


def test_qubit_verbs_load_no_processing(files):
    got = run_fresh(QUBIT_SCRIPT, files[-1])
    assert got["codes"] == [0, 0]
    # Ensemble lives in povm, beside Povm, so only estimating code loads processing
    assert got["loaded"] == ["povmlab.cli", "povmlab.hs", "povmlab.povm", "povmlab.qubit",
                             "povmlab.serialize", "povmlab.standard"]


def test_ensemble_is_one_class():
    from povmlab import povm, processing

    assert povmlab.Ensemble is povm.Ensemble is processing.Ensemble
