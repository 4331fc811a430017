"""The four workloads: what one op is, its seeded inputs, and its output checks.

Each workload builds its inputs in ``__init__`` (the set-up), and hands
out its ops a round at a time.  A round holds every size class and input
kind in fixed proportion.  The inputs repeat from round to round, so
every op runs several times in a run and is timed at its fastest
repetition or their median (see ``run.py``).  An op's ``key`` names that
repeated work.
The ops of ``frames`` and ``lp`` build the ``Povm`` objects they use
from arrays, so no cached property of a ``Povm`` (design matrix, span
projector, span rank) outlives one op; ``sampling`` uses none of them.

An op's check returns ``(name, passed, exact)`` triples.  ``exact``
marks the checks that a correct program passes whatever the conditioning
of the input; one of those failing counts the op as failed and makes the
run incorrect.  A miss of any other check is a tolerance miss: it is
counted and reported, not failed.  The checks against the library's own
tight tolerances (``lin_solve`` for dual residuals, 1e-9 relative for
``min_error``, ``FEASIBILITY_RESIDUAL`` for LP residuals, |z| <= 6 for
sample means) each have an exact ``_loose`` twin, with bounds that
ill-conditioned inputs stay well inside: over 750 random minimal-IC
POVMs at d = 8, 12 and 16, the worst dual residual beyond the dropped
directions below was 9e-7, and the worst ``min_error`` gap 6e-8
relative.  Where the library's ``eig_zero`` cutoff drops a direction
from a pseudoinverse that the span projector keeps, which an
ill-conditioned minimal-IC POVM can trigger, the twin allows for that
direction (see ``_kept_directions``).  The verdict for an infeasible LP
target is exact; the verdicts for feasible targets are not, since HiGHS
can miss a feasible point at its 1e-10 tolerance, but their residuals
and syntheses are checked exactly.  So a wrong number fails the run,
while a tolerance miss is reported as a share of ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gen
from povmlab import montecarlo, postproc, povm, processing

# The library is called through its modules so that a traced run, which
# swaps module attributes for span wrappers, sees every call.

LOOSE_RESIDUAL = 1e-5  # absolute, for residuals whose tight bound is 1e-9 or 1e-8
LOOSE_RELATIVE = 1e-6  # relative, for errors compared at 1e-9


@dataclass
class Op:
    key: str  # the same key means the same work
    run: Callable[[], object]
    check: Callable[[object], list]


class Workload:
    name = ""
    warm_up = True  # run one untimed op before timing
    in_subprocesses = False  # ops run as child processes; traced runs replay them in process
    timed_at_fastest = True  # an op's latency is its fastest repetition, else their median
    targets_per_povm = 0

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def trace_round(self, r: int) -> list[Op]:
        """The ops a traced run instruments; the measured ops unless they run elsewhere."""
        return self.round(r)

    def shares(self) -> dict:
        """Input properties of the ops run so far, as shares of those ops."""
        return {}

    def trace_metrics(self, untraced: dict, measured: dict) -> dict:
        """Metrics of the traced run that spans do not give; fastest seconds per op key."""
        return {}

    def close(self) -> None:
        pass


class _Shares:
    """Counts of a boolean property per op, reported as a share."""

    def __init__(self, *names):
        self.hits = dict.fromkeys(names, 0)
        self.ops = dict.fromkeys(names, 0)

    def add(self, name, value: bool) -> None:
        self.ops[name] += 1
        self.hits[name] += bool(value)

    def report(self) -> dict:
        return {n: self.hits[n] / self.ops[n] if self.ops[n] else 0.0 for n in self.hits}


def _interleave(short: list, long: list, passes: int) -> list:
    """``passes`` runs of the short ops, spread between slices of the long ones."""
    step = -(-len(long) // passes)
    ops = []
    for p in range(passes):
        ops += short + long[p * step:(p + 1) * step]
    return ops


def _span_shares(elements) -> dict:
    """Whether a POVM's elements are linearly independent, and whether they span all operators."""
    rank = povm.Povm(elements, validate=False).span_rank
    return {"lin_indep": rank == len(elements), "complete": rank == elements.shape[1] ** 2}


def _kept_directions(elements, weights, states) -> dict:
    """How many directions the library's ``eig_zero`` cutoff keeps, per matrix it cuts.

    ``V`` has the vectorized elements as rows; the span projector cuts its
    singular values.  The canonical dual pseudo-inverts ``F = V^T V^*``,
    ``min_error`` pseudo-inverts ``G``, the same with element i weighted
    by 1/pi_i, pi_i its barycenter probability.  Both cut eigenvalues,
    which are squared singular values, so an ill-conditioned ``V`` can
    lose directions in ``F`` or ``G`` that the span projector keeps.
    """
    cutoff = povm.DEFAULT_TOL.eig_zero
    V = elements.reshape(len(elements), -1)
    pi = np.real(np.einsum("ab,iba->i", np.tensordot(weights, states, axes=(0, 0)), elements))
    s_v = np.linalg.svd(V, compute_uv=False)
    s_g = np.linalg.svd(V / np.sqrt(pi)[:, None], compute_uv=False)
    return {"V": int(np.count_nonzero(s_v > cutoff * s_v[0])),
            "F": int(np.count_nonzero(s_v ** 2 > cutoff * s_v[0] ** 2)),
            "G": int(np.count_nonzero(s_g ** 2 > cutoff * s_g[0] ** 2))}


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


# ---------------------------------------------------------------------------
# frames: the paper's core loop, duals and errors for many targets

# p50 falls in the d=8 class, p90 in the d=12 class.  d=16 is left out:
# its ops take about 330 ms, so a run times each only about 15 times,
# and on a shared host their fastest time moved twice as much from run
# to run as the d<=12 ones did, which put op_p90_ms past its bound.
FRAME_DIMS = (4, 6, 8, 10, 12)
FRAME_KINDS = {
    "minimal": lambda d: d * d,
    "overcomplete": lambda d: d * d + d,
    "deficient": lambda d: d * d - d,
}
# Ops at d <= 8 take milliseconds, so a burst of contention on the host
# can cover all of an op's repetitions.  Every instance of them runs in
# several passes per round, spread between the long ops, and is timed at
# its fastest.  The quantiles count each distinct op once, so the five
# classes keep equal weight.
SHORT_DIMS = (4, 6, 8)
SHORT_PASSES = 3
TARGETS = 8
ENSEMBLE_STATES = 4


class Frames(Workload):
    name = "frames"
    targets_per_povm = TARGETS

    def __init__(self, seed, smoke, ctx):
        # one input per size class and kind: the cost depends on the sizes,
        # hardly on the drawn values
        rng = np.random.default_rng([seed, 1])
        digest = gen.InputDigest()
        self.cases = []
        for d in FRAME_DIMS[:1] if smoke else FRAME_DIMS:
            for kind, count in FRAME_KINDS.items():
                elements = digest.add(gen.povm_elements(d, count(d), rng))
                weights, states = map(digest.add, gen.ensemble_arrays(d, ENSEMBLE_STATES, rng))
                targets = [digest.add(gen.span_target(elements, rng)) for _ in range(TARGETS)]
                self.cases.append((f"d{d}/{kind}", {
                    "elements": elements, "targets": targets, "dim": d,
                    "ensemble": processing.Ensemble(weights, states),
                    "kept": _kept_directions(elements, weights, states),
                    **_span_shares(elements)}))
        self.digest = digest.hexdigest()
        self.props = _Shares("povm.lin_indep_share", "povm.infocomplete_share")

    def round(self, r):
        short = [self._op(label, inst) for label, inst in self.cases if inst["dim"] in SHORT_DIMS]
        long = [self._op(label, inst) for label, inst in self.cases
                if inst["dim"] not in SHORT_DIMS]
        return _interleave(short, long, SHORT_PASSES)

    def _op(self, key, inst):
        ens = inst["ensemble"]

        def run():
            P = povm.Povm(inst["elements"])
            Dc = povm.canonical_dual(P)
            Do = processing.optimal_dual(P, ens)
            errors = [(
                processing.ensemble_error(P, processing.processing_from_dual(Dc, X), ens),
                processing.ensemble_error(P, processing.processing_from_dual(Do, X), ens),
                processing.min_error(P, ens, X),
            ) for X in inst["targets"]]
            return P, Dc, Do, errors

        def check(out):
            P, Dc, Do, errors = out
            tol = P.tol
            self.props.add("povm.lin_indep_share", inst["lin_indep"])
            self.props.add("povm.infocomplete_share", inst["complete"])
            residuals = (Dc.resolution_residual(), Do.resolution_residual())
            gap = max(abs(em - eo) / abs(eo) for _, eo, em in errors)
            excess = max((em - ec) / max(1.0, abs(ec)) for ec, _, em in errors)
            kept = inst["kept"]
            return [
                ("canonical_residual", residuals[0] <= tol.lin_solve, False),
                ("optimal_residual", residuals[1] <= tol.lin_solve, False),
                ("min_error_is_optimal_dual_error", gap <= 1e-9, False),
                ("min_error_below_canonical", excess <= tol.lin_solve, False),
                # each direction the pseudoinverse of F drops adds 1 to the squared residual
                ("dual_residuals_loose",
                 max(residuals) <= LOOSE_RESIDUAL + np.sqrt(kept["V"] - kept["F"]), True),
                ("min_error_is_optimal_dual_error_loose",
                 gap <= LOOSE_RELATIVE or kept["F"] != kept["G"], True),
                ("min_error_below_canonical_loose",
                 excess <= LOOSE_RELATIVE or kept["F"] != kept["G"], True),
            ]

        return Op(key, run, check)

    def shares(self):
        return self.props.report()


# ---------------------------------------------------------------------------
# lp: one post-processing LP per op

# An LP's time varies up to 2x between random inputs of one size, so a
# quantile over a few inputs jumps from seed to seed.  Every size and kind
# therefore gets LP_INSTANCES inputs, all run in every round, and the
# quantiles are taken over all of them (192 ops, 19 beyond the p90): the
# median falls among the d=4 and d=5 LPs, the p90 among the d=6 ones.
# One round takes about 9 s on a 2.1 GHz core, so every op runs at least
# twice in a 30-s run, and the set of ops does not depend on host speed.
LP_DIMS = (4, 5, 6)
LP_INSTANCES = 8
LP_KINDS = {"indep": lambda d: d * d, "over": lambda d: round(1.5 * d * d)}
LP_CALLS = ("feasible", "infeasible", "joint", "blur")


class Lp(Workload):
    name = "lp"
    timed_at_fastest = False  # 3-4 repetitions per op

    def __init__(self, seed, smoke, ctx):
        rng = np.random.default_rng([seed, 2])
        digest = gen.InputDigest()
        # instance-major order, so every stretch of a round mixes the sizes
        self.ops = []
        for i in range(1 if smoke else LP_INSTANCES):
            for d in LP_DIMS[:1] if smoke else LP_DIMS:
                for kind, count in LP_KINDS.items():
                    elements = digest.add(gen.povm_elements(d, count(d), rng))
                    m = digest.add(gen.markov(d + 2, len(elements), rng))
                    lam, projectors = map(digest.add, gen.spectral_projectors(d, rng))
                    weights, states = map(digest.add, gen.ensemble_arrays(d, ENSEMBLE_STATES, rng))
                    observables = [digest.add(gen.hermitian(d, rng)) for _ in range(2)]
                    inst = {
                        "P": elements,
                        "feasible": np.tensordot(m, elements, axes=(1, 0)),
                        "infeasible": projectors,
                        "labels": [float(x) for x in lam],
                        "observables": [povm.Observable(X) for X in observables],
                        "ensemble": processing.Ensemble(weights, states),
                        **_span_shares(elements),
                    }
                    self.ops += [self._op(f"d{d}/{kind}/{call}#{i}", call, inst)
                                 for call in LP_CALLS]
        self.digest = digest.hexdigest()
        self.props = _Shares("postproc.lin_indep_share", "postproc.feasible_share")

    def round(self, r):
        return self.ops

    def _op(self, key, call, inst):
        elements = inst["P"]

        def build(name):
            # inside the op, so the span projector and design matrix are built
            # afresh; the inputs are valid by construction
            labels = inst["labels"] if name == "infeasible" else None
            return povm.Povm(inst[name], labels=labels, validate=False)

        if call in ("feasible", "infeasible"):
            def run():
                return postproc.find_post_processing(build(call), build("P"))

            def check(search):
                self.props.add("postproc.feasible_share", search.feasible)
                if call == "infeasible":
                    # a rank-one projector is no mixture of full-rank elements
                    return [("lp_verdict", not search.feasible, True)]
                results = [("lp_verdict", search.feasible, False),
                           ("lp_residual_loose", search.residual <= LOOSE_RESIDUAL, True)]
                if search.feasible:
                    synth = np.tensordot(search.markov.m, elements, axes=(1, 0))
                    results += [
                        ("lp_residual", search.residual <= postproc.FEASIBILITY_RESIDUAL, False),
                        ("lp_synthesis_loose",
                         _max_abs(synth - inst["feasible"]) <= LOOSE_RESIDUAL, True),
                    ]
                return results
        elif call == "joint":
            def run():
                return postproc.find_joint_measurement(build("P"), inst["observables"])

            def check(result):
                results = [("joint_verdict",
                            result.feasible and len(result.certificates) == 2, False)]
                if result.feasible:
                    # each processed element must be a function of its observable,
                    # that is, unchanged by pinching with the spectral projectors
                    worst = 0.0
                    for cert, X in zip(result.certificates, inst["observables"]):
                        for Q in np.tensordot(cert.markov.m, elements, axes=(1, 0)):
                            pinched = sum(p @ Q @ p for p in X.projectors)
                            worst = max(worst, _max_abs(pinched - Q))
                    results.append(("joint_function_of_observable_loose",
                                    worst <= LOOSE_RESIDUAL, True))
                return results
        else:
            def run():
                return postproc.blur_for_post_processing(
                    build("P"), build("infeasible"), inst["ensemble"])

            def check(blur):
                eps, M = blur.epsilon_star, len(inst["infeasible"])
                target = (1.0 - eps) * inst["infeasible"] + (eps / M) * np.eye(elements.shape[1])
                synth = np.tensordot(blur.markov.m, elements, axes=(1, 0))
                residual = _max_abs(synth - target)
                return [("blur_weight", 0.0 <= eps < 1.0, True),
                        ("blur_target", _max_abs(blur.blurred.elements - target) <= 1e-12, True),
                        ("blur_residual", residual <= postproc.FEASIBILITY_RESIDUAL, False),
                        ("blur_residual_loose", residual <= LOOSE_RESIDUAL, True)]

        def checked(out):
            self.props.add("postproc.lin_indep_share", inst["lin_indep"])
            return check(out)

        return Op(key, run, checked)

    def shares(self):
        return self.props.report()


# ---------------------------------------------------------------------------
# sampling: Born-rule draws and the estimates computed from them

SAMPLE_SIZES = ((2, 4), (4, 20), (8, 80), (16, 272))  # (d, N)
DRAWS = 2_000_000
SMOKE_DRAWS = 20_000
CHUNKS = 8
ESTIMATES = 4
Z_LIMIT = 6.0  # |z| beyond this has probability 2e-9 per estimate
Z_LIMIT_LOOSE = 10.0  # and beyond this 2e-23, so a miss means wrong counts


class Sampling(Workload):
    name = "sampling"
    targets_per_povm = ESTIMATES

    def __init__(self, seed, smoke, ctx):
        # one input per N: the cost depends on N and the draws, not on the drawn values
        rng = np.random.default_rng([seed, 3])
        digest = gen.InputDigest()
        self.seed = seed
        self.draws = SMOKE_DRAWS if smoke else DRAWS
        self.cases = []
        for d, N in SAMPLE_SIZES[:1] if smoke else SAMPLE_SIZES:
            elements = digest.add(gen.povm_elements(d, N, rng))
            rho = digest.add(gen.mixed_state(d, rng))
            weights, states = map(digest.add, gen.ensemble_arrays(d, ENSEMBLE_STATES, rng))
            targets = [digest.add(gen.hermitian(d, rng)) for _ in range(ESTIMATES)]
            P = povm.Povm(elements)
            D = processing.optimal_dual(P, processing.Ensemble(weights, states))
            funcs = [processing.processing_from_dual(D, X) for X in targets]
            probs = np.real(np.einsum("ab,iba->i", rho, elements))
            expected = []
            for c in funcs:
                values = c.coefficients.real
                mean = float(values @ probs)
                expected.append((mean, float((values - mean) ** 2 @ probs)))
            self.cases.append((f"N{N}", {"P": P, "rho": rho, "funcs": funcs,
                                         "expected": expected, **_span_shares(elements)}))
        self.digest = digest.hexdigest()
        self.whole_counts = {}
        self.props = _Shares("povm.lin_indep_share", "povm.infocomplete_share")

    def round(self, r):
        stream = int(np.random.SeedSequence([self.seed, r]).generate_state(1)[0])
        ops = []
        for label, inst in self.cases:
            for chunk in (None, self.draws // CHUNKS):
                mode = "whole" if chunk is None else "chunked"
                ops.append(self._op(f"{label}/{mode}", (label, r), inst, stream, chunk))
        return ops

    def _op(self, key, pair, inst, stream, chunk):
        n = self.draws

        def run():
            run_ = montecarlo.sample(inst["P"], inst["rho"], n, stream, chunk_size=chunk)
            return run_, [montecarlo.empirical_estimate(run_, c) for c in inst["funcs"]]

        def check(out):
            run_, estimates = out
            self.props.add("povm.lin_indep_share", inst["lin_indep"])
            self.props.add("povm.infocomplete_share", inst["complete"])
            results = [("counts_sum_to_n", int(run_.counts.sum()) == n, True)]
            if chunk is None:
                self.whole_counts[pair] = run_.counts
            else:
                results.append(("chunked_equals_whole",
                                np.array_equal(run_.counts, self.whole_counts.get(pair)), True))
            z = max(abs(mean - exact) / np.sqrt(var / n)
                    for (mean, _), (exact, var) in zip(estimates, inst["expected"]))
            results += [("mean_within_z_limit", z <= Z_LIMIT, False),
                        ("mean_within_z_limit_loose", z <= Z_LIMIT_LOOSE, True)]
            return results

        return Op(key, run, check)

    def shares(self):
        return self.props.report()


# ---------------------------------------------------------------------------
# cli: whole `python -m povmlab` runs, cold start included

CLI_TIMEOUT_S = 120
SIC_MIN_ERROR = 8.0 / 3.0
TETRAHEDRON = np.array([
    [0.0, 0.0, 1.0],
    [2.0 * np.sqrt(2.0) / 3.0, 0.0, -1.0 / 3.0],
    [-np.sqrt(2.0) / 3.0, np.sqrt(2.0 / 3.0), -1.0 / 3.0],
    [-np.sqrt(2.0) / 3.0, -np.sqrt(2.0 / 3.0), -1.0 / 3.0],
])
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def _operator_json(X) -> dict:
    return {"dim": X.shape[0], "re": X.real.tolist(), "im": X.imag.tolist()}


def _povm_json(elements) -> dict:
    return {"dim": elements.shape[1], "elements": [_operator_json(m) for m in elements]}


class Cli(Workload):
    name = "cli"
    warm_up = False  # users pay the cold start on every run
    in_subprocesses = True
    timed_at_fastest = False  # 3-5 repetitions per verb
    targets_per_povm = 1

    def __init__(self, seed, smoke, ctx):
        rng = np.random.default_rng([seed, 4])
        digest = gen.InputDigest()
        self.env = ctx["env"]
        self.python = sys.executable
        self.workdir = ctx["out"] / f"cli-seed{seed}-pid{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        big_d, big_n = (4, 20) if smoke else (12, 160)

        def write(name, obj):
            path = self.workdir / name
            path.write_bytes(digest.add_bytes(json.dumps(obj).encode()))
            return str(path)

        sic = np.stack([0.25 * (np.eye(2) + np.tensordot(n, PAULI, axes=(0, 0)))
                        for n in TETRAHEDRON])
        p4 = gen.povm_elements(4, 20, rng)
        q4 = np.tensordot(gen.markov(6, 20, rng), p4, axes=(1, 0))
        p_big = gen.povm_elements(big_d, big_n, rng)
        weights, states = gen.ensemble_arrays(big_d, ENSEMBLE_STATES, rng)
        files = {
            "sic": write("sic.json", _povm_json(sic)),
            "sx": write("sx.json", _operator_json(PAULI[0])),
            "p4": write("p4.json", _povm_json(p4)),
            "q4": write("q4.json", _povm_json(q4)),
            "rho4": write("rho4.json", _operator_json(gen.mixed_state(4, rng))),
            "x4": write("x4.json", {"operator": _operator_json(gen.hermitian(4, rng))}),
            "a4": write("a4.json", {"operator": _operator_json(gen.hermitian(4, rng))}),
            "b4": write("b4.json", {"operator": _operator_json(gen.hermitian(4, rng))}),
            "big": write("big.json", _povm_json(p_big)),
            "ens_big": write("ens_big.json", {"states": [
                {"q": float(q), "rho": _operator_json(s)} for q, s in zip(weights, states)]}),
        }
        theta = float(rng.uniform(0.1, 1.4))
        lo, hi = sorted(float(x) for x in rng.uniform(0.1, 1.4, size=2))
        sim_seed = int(rng.integers(2 ** 31))
        digest.add(np.array([theta, lo, hi, sim_seed]))
        self.verbs = [
            ("qubit-optimal", ["qubit", "optimal", "--theta", repr(theta), "--family", "4"]),
            ("qubit-sweep", ["qubit", "sweep", "--thetas", f"{lo!r}:{hi!r}:8", "--family", "both"]),
            ("validate", ["validate", files["p4"]]),
            ("infocheck", ["infocheck", "--povm", files["p4"]]),
            ("min-error", ["min-error", "--povm", files["sic"], "--x", files["sx"]]),
            ("simulate", ["simulate", "--povm", files["p4"], "--state", files["rho4"],
                          "--n", "100000", "--x", files["x4"], "--seed", str(sim_seed)]),
            ("abspace-check", ["abspace", "check", "--povm", files["p4"],
                               "--A", files["a4"], "--B", files["b4"]]),
            ("postproc-check", ["postproc", "check", "--q", files["q4"], "--p", files["p4"]]),
            (f"dual-d{big_d}", ["dual", "--povm", files["big"]]),
            (f"optimal-dual-d{big_d}", ["optimal-dual", "--povm", files["big"],
                                        "--ensemble", files["ens_big"]]),
        ]
        self.digest = digest.hexdigest()
        self.reference = {}  # first subprocess output of each verb
        self.warm = False
        # the POVM each verb measures, for the input-property shares
        povm_of = {"validate": p4, "infocheck": p4, "min-error": sic, "simulate": p4,
                   "abspace-check": p4, "postproc-check": p4,
                   f"dual-d{big_d}": p_big, f"optimal-dual-d{big_d}": p_big}
        self.verb_props = {verb: _span_shares(elements) for verb, elements in povm_of.items()}
        self.props = _Shares("povm.lin_indep_share", "povm.infocomplete_share",
                             "postproc.lin_indep_share", "postproc.feasible_share")

    def _check(self, verb, code, stdout: bytes, reference_only=False):
        results = [("exit_code", code == 0, True)]
        reference = self.reference.setdefault(verb, stdout)
        results.append(("output_identical", stdout == reference, True))
        if reference_only:
            return results
        if verb in self.verb_props:
            self.props.add("povm.lin_indep_share", self.verb_props[verb]["lin_indep"])
            self.props.add("povm.infocomplete_share", self.verb_props[verb]["complete"])
        if verb == "postproc-check":
            self.props.add("postproc.lin_indep_share", self.verb_props[verb]["lin_indep"])
            self.props.add("postproc.feasible_share", b'"feasible": true' in stdout)
        if verb == "min-error":
            try:
                value = json.loads(stdout)["min_error"]
            except (ValueError, KeyError):
                value = float("nan")
            results.append(("sic_min_error_is_8_3",
                            abs(value - SIC_MIN_ERROR) <= 1e-9 * SIC_MIN_ERROR, True))
        return results

    def round(self, r):
        return [self._subprocess_op(verb, argv) for verb, argv in self.verbs]

    def _subprocess_op(self, verb, argv):
        cmd = [self.python, "-m", "povmlab", *argv]

        def run():
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  env=self.env, timeout=CLI_TIMEOUT_S, check=False)
            return proc.returncode, proc.stdout

        return Op(verb, run, lambda out: self._check(verb, *out))

    def trace_round(self, r):
        ops = [self._inprocess_op(verb, argv) for verb, argv in self.verbs]
        if not self.warm:
            # in-process timings are of warm runs: each verb's first call is untimed
            self.warm = True
            for op in ops:
                op.run()
        return ops

    def _inprocess_op(self, verb, argv):
        from povmlab.cli import main

        def run():
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = main(list(argv))
            return code, buf.getvalue().encode()

        return Op(verb, run, lambda out: self._check(verb, *out, reference_only=True))

    def trace_metrics(self, untraced, measured):
        import_ms, scipy_ms = zip(*(self._import_times() for _ in range(3)))
        return {
            "cli.import_ms": statistics.median(import_ms),
            "cli.import_scipy_ms": statistics.median(scipy_ms),
            "cli.inproc_ms": 1e3 * statistics.median(untraced.values()),
            "cli.startup_share": 1.0 - sum(untraced.values()) / sum(measured.values()),
        }

    def _import_times(self):
        """Cumulative import time of ``povmlab.cli`` and of the scipy it pulls in, in ms."""
        proc = subprocess.run([self.python, "-X", "importtime", "-c", "import povmlab.cli"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env,
                              timeout=CLI_TIMEOUT_S, check=True, text=True)
        roots, pending = [], []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, field = line.split("|")
            if not cum.strip().isdigit():
                continue  # the header line
            name = field[1:]
            depth = (len(name) - len(name.lstrip())) // 2
            node = {"name": name.strip(), "cum": int(cum), "depth": depth, "children": []}
            # -X importtime prints a module after everything it imported
            while pending and pending[-1]["depth"] == depth + 1:
                node["children"].insert(0, pending.pop())
            pending.append(node)
            if depth == 0:
                roots.append(node)

        def is_pkg(name, pkg):
            return name == pkg or name.startswith(pkg + ".")

        def outermost_scipy(node):
            if is_pkg(node["name"], "scipy"):
                return node["cum"]
            return sum(outermost_scipy(c) for c in node["children"])

        total = sum(n["cum"] for n in roots if is_pkg(n["name"], "povmlab"))
        scipy_us = sum(outermost_scipy(n) for n in roots)
        return total / 1e3, scipy_us / 1e3

    def shares(self):
        return self.props.report()

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Frames, Lp, Sampling, Cli)}
