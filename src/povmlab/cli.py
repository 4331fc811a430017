"""Command-line front end: JSON/CSV in, JSON/CSV out, deterministic bytes.

Verbs
-----
validate, dual, optimal-dual, min-error, infocheck,
postproc {check, blur, joint}, abspace {build, check},
qubit {optimal, sweep}, simulate

A verb ``cmd_*`` writes nothing: it returns its document (a dict, or the
CSV text of ``qubit sweep``) and its exit code, or raises ``CommandError``.
``main`` is the one writer. It puts ``meta`` first in a dict (or fills the
``"meta"`` key the verb placed), renders it with ``dump_json`` and writes
it to ``--out`` or stdout. A ``CommandError`` that carries a document (an
all-degenerate sweep) has it written before its one-line message.

The module itself loads only ``hs`` and ``serialize`` (with ``povm``);
each verb imports the library functions it calls, so a cold run loads
only the modules its verb needs.

Exit codes: 0 success, 1 file/parse error (an argument error too, in one
line), 2 validation failure,
3 negative verdict (the verdict JSON is still written), 4 solver failure
(HiGHS stopped short of an optimal solution; nothing is written).

Repeated runs with identical inputs, options, and seed produce
byte-identical primary output: no timestamps, fixed key order, and a
metadata block carrying the tool version, tolerances, and seed.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .hs import DEFAULT_TOL, SolverError, Tolerances, _check_seed, as_operator
from .serialize import (
    ParseError,
    SchemaError,
    dump_json,
    ensemble_from_json,
    load_json_file,
    markov_to_json,
    observable_from_json,
    operator_from_json,
    operator_to_json,
    povm_from_json,
    povm_to_json,
)

if TYPE_CHECKING:
    from .povm import Observable
    from .processing import Ensemble

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NEGATIVE = 3
EXIT_SOLVER = 4

_TOL_FIELDS = ("eig_zero", "psd_slack", "lin_solve", "cluster")
MAX_SWEEP_ANGLES = 10 ** 5  # --thetas count; checked before any angle is made


class CommandError(Exception):
    """A handled failure carrying its exit code, and the document to write anyway, if any."""

    def __init__(self, code: int, message: str, document: str | None = None):
        self.code = code
        self.document = document
        super().__init__(message)


# ---------------------------------------------------------------------------
# option resolution

def _read_config(filename: str) -> dict:
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CommandError(EXIT_PARSE, f"{filename}: {exc}") from None
    known = set(_TOL_FIELDS) | {"seed"}
    values: dict = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CommandError(
                EXIT_PARSE, f"{filename}:{lineno}: expected 'key = value', got {raw!r}"
            )
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise CommandError(
                EXIT_PARSE,
                f"{filename}:{lineno}: unknown key {key!r} "
                f"(known: {', '.join(sorted(known))})",
            )
        try:
            values[key] = int(value) if key == "seed" else float(value)
        except ValueError:
            raise CommandError(
                EXIT_PARSE, f"{filename}:{lineno}: bad value {value!r} for {key}"
            ) from None
    return values


def _resolve_options(args) -> tuple[Tolerances, int]:
    config = _read_config(args.config) if args.config else {}
    tol_values = {}
    for field in _TOL_FIELDS:
        flag = getattr(args, f"tol_{field}")
        if flag is not None:
            tol_values[field] = flag
        elif field in config:
            tol_values[field] = config[field]
        else:
            tol_values[field] = getattr(DEFAULT_TOL, field)
    tol = Tolerances(**tol_values)
    if args.seed is not None:
        seed = args.seed
    elif "seed" in config:
        seed = int(config["seed"])
    elif os.environ.get("POVMLAB_SEED"):
        try:
            seed = int(os.environ["POVMLAB_SEED"])
        except ValueError:
            raise CommandError(
                EXIT_INVALID, f"POVMLAB_SEED={os.environ['POVMLAB_SEED']!r} is not an integer"
            ) from None
    else:
        seed = 0
    return tol, _check_seed(seed)


def _meta(tol: Tolerances, seed: int) -> dict:
    return {
        "tool": "povmlab",
        "version": __version__,
        "tolerances": {f: getattr(tol, f) for f in _TOL_FIELDS},
        "seed": seed,
    }


def _write_output(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CommandError(EXIT_PARSE, f"{path}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# input loading

def _from_file(filename: str, build):
    """``build`` the document in ``filename``, naming the file in any validation error."""
    obj = load_json_file(filename)
    try:
        return build(obj)
    except ValueError as exc:
        raise CommandError(EXIT_INVALID, f"{filename}: {exc}") from None


def _load_povm(filename: str, tol: Tolerances):
    return _from_file(filename, lambda obj: povm_from_json(obj, tol=tol))


def _load_ensemble(arg: str, dim: int, tol: Tolerances) -> Ensemble:
    from .standard import ENSEMBLE_PRESETS, maximally_mixed_ensemble

    if arg in ENSEMBLE_PRESETS:
        if arg == "maximally-mixed-only":
            return maximally_mixed_ensemble(dim, tol=tol)
        ensemble = ENSEMBLE_PRESETS[arg](tol=tol)
    else:
        ensemble = _from_file(arg, lambda obj: ensemble_from_json(obj, tol=tol))
    if ensemble.dim != dim:
        raise CommandError(
            EXIT_INVALID, f"ensemble dimension {ensemble.dim} != POVM dimension {dim}"
        )
    return ensemble


def _load_target(filename: str, tol: Tolerances) -> np.ndarray:
    """A target operator from either an Operator or an Observable document."""
    def build(obj):
        if isinstance(obj, dict) and "operator" in obj:
            return observable_from_json(obj, tol=tol).operator
        return operator_from_json(obj)

    return _from_file(filename, build)


def _load_observable(filename: str, tol: Tolerances) -> Observable:
    from .povm import Observable

    def build(obj):
        if isinstance(obj, dict) and "operator" in obj:
            return observable_from_json(obj, tol=tol)
        return Observable(operator_from_json(obj), tol=tol)

    return _from_file(filename, build)


def _load_state(filename: str, tol: Tolerances) -> np.ndarray:
    from .processing import Ensemble

    def build(obj):
        rho = operator_from_json(obj)
        try:
            Ensemble([1.0], [rho], tol=tol)  # the one density-matrix check
        except ValueError as exc:
            raise ValueError(f"not a density matrix: {exc}") from None
        return rho

    return _from_file(filename, build)


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# verbs

def cmd_validate(args, tol: Tolerances, seed: int) -> tuple[dict, int]:
    from .povm import povm_report

    def build(obj):
        # parse the raw element list leniently: the point is to report problems
        elements_json = obj.get("elements") if isinstance(obj, dict) else None
        if not isinstance(elements_json, list) or not elements_json:
            raise SchemaError("povm.elements", "expected a nonempty array")
        return povm_report(
            [operator_from_json(e, f"povm.elements[{i}]") for i, e in enumerate(elements_json)],
            tol=tol,
        )

    report = _from_file(args.povm, build)
    return {"report": report}, EXIT_OK if report["valid"] else EXIT_INVALID


def _dual_payload(P, D) -> dict:
    return {
        "dim": P.dim,
        "n_elements": len(P),
        "elements": [operator_to_json(m) for m in D.elements],
        "resolution_residual": D.resolution_residual(),
    }


def cmd_dual(args, tol: Tolerances, seed: int) -> tuple[dict, int]:
    from .povm import canonical_dual

    P = _load_povm(args.povm, tol)
    return _dual_payload(P, canonical_dual(P)), EXIT_OK


def cmd_optimal_dual(args, tol: Tolerances, seed: int) -> tuple[dict, int]:
    from .processing import metric_diagonal, optimal_dual

    P = _load_povm(args.povm, tol)
    ensemble = _load_ensemble(args.ensemble, P.dim, tol)
    return {**_dual_payload(P, optimal_dual(P, ensemble)),
            "metric": metric_diagonal(P, ensemble).tolist()}, EXIT_OK


def cmd_min_error(args, tol: Tolerances, seed: int) -> tuple[dict, int]:
    from .processing import min_error

    P = _load_povm(args.povm, tol)
    ensemble = _load_ensemble(args.ensemble, P.dim, tol)
    X = _load_target(args.x, tol)
    return {"min_error": min_error(P, ensemble, X)}, EXIT_OK


def cmd_infocheck(args, tol: Tolerances, seed: int) -> tuple[dict, int]:
    from .povm import is_infocomplete, is_r_infocomplete

    P = _load_povm(args.povm, tol)
    payload = {
        "dim": P.dim,
        "span_rank": P.span_rank,
        "infocomplete": is_infocomplete(P),
    }
    verdict = payload["infocomplete"]
    if args.r:
        operators = [_load_target(f, tol) for f in args.r]
        payload["r_infocomplete"] = is_r_infocomplete(P, operators)
        verdict = payload["r_infocomplete"]
    return payload, EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_postproc_check(args, tol: Tolerances, seed: int) -> tuple[dict, int]:
    from .postproc import find_post_processing

    Q = _load_povm(args.q, tol)
    P = _load_povm(args.p, tol)
    search = find_post_processing(Q, P)
    return {
        "feasible": search.feasible,
        "verdict": "feasible" if search.feasible else "infeasible",
        "visibility": search.visibility,
        "residual": search.residual,
        "markov": markov_to_json(search.markov) if search.markov is not None else None,
        "witness": (None if search.witness is None
                    else [operator_to_json(Y) for Y in search.witness]),
    }, EXIT_OK if search.feasible else EXIT_NEGATIVE


def cmd_postproc_blur(args, tol: Tolerances, seed: int) -> tuple[dict, int]:
    from .postproc import blur_for_post_processing

    P = _load_povm(args.p, tol)
    Q = _load_povm(args.q, tol)
    blur = blur_for_post_processing(P, Q)
    return {
        "epsilon_star": blur.epsilon_star,
        "inflation": blur.inflation,
        "markov": markov_to_json(blur.markov),
        "blurred": povm_to_json(blur.blurred),
        "coefficients": blur.coefficients.tolist(),
    }, EXIT_OK


def cmd_postproc_joint(args, tol: Tolerances, seed: int) -> tuple[dict, int]:
    from .postproc import find_joint_measurement

    P = _load_povm(args.povm, tol)
    observables = [_load_observable(f, tol) for f in args.x]
    result = find_joint_measurement(P, observables)
    return {
        "feasible": result.feasible,
        "certificates": [
            {"visibility": cert.visibility, "markov": markov_to_json(cert.markov)}
            for cert in result.certificates
        ],
        "joint": povm_to_json(result.joint),
    }, EXIT_OK if result.feasible else EXIT_NEGATIVE


def cmd_abspace_build(args, tol: Tolerances, seed: int) -> tuple[dict, int]:
    from .abspace import ab_space

    A = _load_observable(args.A, tol)
    B = _load_observable(args.B, tol)
    space = ab_space(A, B)
    return {
        "span_dim": space.dim,
        "basis": [operator_to_json(b) for b in space.basis],
    }, EXIT_OK


def cmd_abspace_check(args, tol: Tolerances, seed: int) -> tuple[dict, int]:
    from .abspace import ab_space, is_ab_infocomplete, is_minimal_ab_infocomplete

    P = _load_povm(args.povm, tol)
    A = _load_observable(args.A, tol)
    B = _load_observable(args.B, tol)
    space = ab_space(A, B)
    ab_ok = is_ab_infocomplete(P, space)
    return {
        "ab_infocomplete": ab_ok,
        "minimal": is_minimal_ab_infocomplete(P, space),
        "span_dim": space.dim,
    }, EXIT_OK if ab_ok else EXIT_NEGATIVE


def _optimal_family(family: str, theta: float, tol: Tolerances):
    from .qubit import optimal_four_outcome, optimal_three_outcome

    if family == "3":
        return optimal_three_outcome(theta, tol)
    return optimal_four_outcome(theta, tol)


def cmd_qubit_optimal(args, tol: Tolerances, seed: int) -> tuple[dict, int]:
    from .qubit import noise_quantities
    from .standard import six_state_ensemble

    P = _optimal_family(args.family, args.theta, tol)
    summary = noise_quantities(P, six_state_ensemble(tol), args.theta)
    # a loadable POVM document: main fills "meta" in after the POVM's keys
    return {**povm_to_json(P), "meta": None, "summary": {
        "theta": summary.theta,
        "family": int(args.family),
        "B": summary.B,
        "Gamma": summary.Gamma,
        "Delta": summary.Delta,
        "kappa": summary.kappa,
        "total_error": summary.total_error,
        "bound": summary.bound,
        "gap": summary.total_error - summary.bound,
    }}, EXIT_OK


def _parse_theta_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise CommandError(EXIT_INVALID, f"--thetas expects 'start:stop:count', got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise CommandError(EXIT_INVALID, f"--thetas expects numbers, got {text!r}") from None
    if count < 1:
        raise CommandError(EXIT_INVALID, "--thetas count must be at least 1")
    if count > MAX_SWEEP_ANGLES:
        raise CommandError(EXIT_INVALID, f"--thetas count must be at most {MAX_SWEEP_ANGLES}")
    return np.linspace(start, stop, count)


def cmd_qubit_sweep(args, tol: Tolerances, seed: int) -> tuple[str, int]:
    from .qubit import DegenerateNoiseError, noise_quantities

    thetas = _parse_theta_range(args.thetas)
    families = ("3", "4") if args.family == "both" else (args.family,)
    ensemble = _load_ensemble(args.ensemble, 2, tol)
    lines = [
        f"# povmlab {__version__}",
        "# tolerances: " + " ".join(f"{f}={getattr(tol, f):g}" for f in _TOL_FIELDS),
        f"# seed: {seed}",
    ]
    rows, skipped = [], []
    for theta in thetas:
        for family in families:
            P = _optimal_family(family, float(theta), tol)
            try:
                s = noise_quantities(P, ensemble, float(theta))
            except DegenerateNoiseError:
                if theta not in skipped:
                    skipped.append(theta)
                continue
            row = (s.theta, s.B, s.Gamma, s.Delta, s.total_error, s.bound,
                   s.total_error - s.bound)
            rows.append(",".join(_format_float(x) for x in row))
    if skipped:
        lines.append("# skipped (degenerate): " + " ".join(_format_float(t) for t in skipped))
    lines.append("theta,B,Gamma,Delta,total_error,bound,gap")
    csv = "\n".join(lines + rows) + "\n"
    if not rows:
        raise CommandError(EXIT_INVALID, "every angle in --thetas gives a degenerate noise matrix",
                           document=csv)
    return csv, EXIT_OK


def cmd_simulate(args, tol: Tolerances, seed: int) -> tuple[dict, int]:
    from .montecarlo import empirical_estimate, sample
    from .povm import canonical_dual
    from .processing import optimal_dual, processing_from_dual, statistical_error

    P = _load_povm(args.povm, tol)
    rho = _load_state(args.state, tol)
    X = _load_target(args.x, tol)
    if args.ensemble:
        D = optimal_dual(P, _load_ensemble(args.ensemble, P.dim, tol))
    else:
        D = canonical_dual(P)
    c = processing_from_dual(D, X)
    run = sample(P, rho, args.n, seed)
    mean, variance = empirical_estimate(run, c, tol)
    predicted = statistical_error(P, c, rho)
    exact = float(np.real(np.trace(rho @ as_operator(X))))
    # standard error of the mean of n draws with the known variance ``predicted``
    se = float(np.sqrt(predicted / run.n_ex))
    z = (mean - exact) / se if se > 0 else 0.0
    return {
        "counts": [int(k) for k in run.counts],
        "mean": mean,
        "variance": variance,
        "predicted_error": predicted,
        "z_score": z,
    }, EXIT_OK


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """A parser, and through ``parser_class`` its subparsers, that fail in one line.

    argparse prints a usage block and exits 2, the code of a validation
    failure; here an argument error is a parse failure like any other.
    """

    def error(self, message):
        raise CommandError(EXIT_PARSE, f"error: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for field in _TOL_FIELDS:
        common.add_argument(
            f"--tol-{field.replace('_', '-')}", dest=f"tol_{field}", type=float,
            default=None, metavar="T",
            help=f"override the {field} tolerance (default {getattr(DEFAULT_TOL, field):g})",
        )
    common.add_argument("--config", default=None, metavar="FILE",
                        help="key = value file with tolerance and seed defaults")
    common.add_argument("--seed", type=int, default=None,
                        help="random seed (default: POVMLAB_SEED env, else 0)")
    common.add_argument("--out", default=None, metavar="FILE",
                        help="write the primary output here instead of stdout")

    parser = _Parser(
        prog="povmlab",
        description="Indirect estimation with POVMs: duals, errors, post-processing.",
    )
    parser.add_argument("--version", action="version", version=f"povmlab {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check positivity and completeness of a POVM file")
    p.add_argument("povm", help="POVM JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dual", parents=[common], help="canonical dual frame")
    p.add_argument("--povm", required=True)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("optimal-dual", parents=[common],
                       help="ensemble-optimal dual frame")
    p.add_argument("--povm", required=True)
    p.add_argument("--ensemble", default="isotropic-six-state",
                   help="ensemble JSON file or preset name (default isotropic-six-state)")
    p.set_defaults(func=cmd_optimal_dual)

    p = sub.add_parser("min-error", parents=[common],
                       help="minimum ensemble-averaged statistical error for a target")
    p.add_argument("--povm", required=True)
    p.add_argument("--ensemble", default="isotropic-six-state")
    p.add_argument("--x", required=True, help="target Operator or Observable JSON")
    p.set_defaults(func=cmd_min_error)

    p = sub.add_parser("infocheck", parents=[common],
                       help="informational completeness of a POVM")
    p.add_argument("--povm", required=True)
    p.add_argument("--r", nargs="+", metavar="OP",
                   help="operator files; check completeness relative to their span")
    p.set_defaults(func=cmd_infocheck)

    p = sub.add_parser("postproc", parents=[],
                       help="post-processing relations between measurements")
    psub = p.add_subparsers(dest="action", required=True)
    pc = psub.add_parser("check", parents=[common],
                         help="is Q a classical post-processing of P?")
    pc.add_argument("--q", required=True, help="target POVM JSON")
    pc.add_argument("--p", required=True, help="source POVM JSON")
    pc.set_defaults(func=cmd_postproc_check)
    pb = psub.add_parser("blur", parents=[common],
                         help="smallest uniform blur making Q reachable from P, "
                              "epsilon_star = 1 - the least blur (no ensemble)")
    pb.add_argument("--p", required=True, help="source POVM JSON")
    pb.add_argument("--q", required=True, help="target POVM JSON")
    pb.set_defaults(func=cmd_postproc_blur)
    pj = psub.add_parser("joint", parents=[common],
                         help="least blur of each observable from P, and their joint POVM")
    pj.add_argument("--povm", required=True)
    pj.add_argument("--x", nargs="+", required=True, metavar="OBS",
                    help="observable JSON files")
    pj.set_defaults(func=cmd_postproc_joint)

    p = sub.add_parser("abspace", parents=[],
                       help="spans of powers of two observables")
    asub = p.add_subparsers(dest="action", required=True)
    ab = asub.add_parser("build", parents=[common],
                         help="orthonormal basis of Span{A^n, B^n}")
    ab.add_argument("--A", required=True, help="observable JSON")
    ab.add_argument("--B", required=True, help="observable JSON")
    ab.set_defaults(func=cmd_abspace_build)
    ac = asub.add_parser("check", parents=[common],
                         help="does a POVM span the A,B power space?")
    ac.add_argument("--povm", required=True)
    ac.add_argument("--A", required=True)
    ac.add_argument("--B", required=True)
    ac.set_defaults(func=cmd_abspace_check)

    p = sub.add_parser("qubit", parents=[], help="closed-form planar qubit optima")
    qsub = p.add_subparsers(dest="action", required=True)
    qo = qsub.add_parser("optimal", parents=[common],
                         help="bound-achieving POVM at one angle")
    qo.add_argument("--theta", type=float, required=True)
    qo.add_argument("--family", choices=("3", "4"), default="4")
    qo.set_defaults(func=cmd_qubit_optimal)
    qs = qsub.add_parser("sweep", parents=[common],
                         help="CSV of noise quantities over an angle range")
    qs.add_argument("--thetas", required=True, metavar="A:B:N",
                    help="N angles evenly spaced from A to B")
    qs.add_argument("--family", choices=("3", "4", "both"), default="both")
    qs.add_argument("--ensemble", default="six-state")
    qs.add_argument("--csv", dest="out", metavar="FILE", help="the same as --out")
    qs.set_defaults(func=cmd_qubit_sweep)

    p = sub.add_parser("simulate", parents=[common],
                       help="seeded Born-rule sampling with empirical error report")
    p.add_argument("--povm", required=True)
    p.add_argument("--state", required=True, help="density-matrix Operator JSON")
    p.add_argument("--n", type=int, required=True, help="number of experiments")
    p.add_argument("--x", required=True, help="target Operator or Observable JSON")
    p.add_argument("--ensemble", default=None,
                   help="use the ensemble-optimal dual instead of the canonical one")
    p.set_defaults(func=cmd_simulate)

    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """One stderr line per warning, without the source location."""
    return f"povmlab: warning: {category.__name__}: {message}\n"


def main(argv=None) -> int:
    # formatting, not showing, is replaced: a recorder such as
    # ``warnings.catch_warnings(record=True)`` still receives every warning
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        args = build_parser().parse_args(argv)
        tol, seed = _resolve_options(args)
        failure = None
        try:
            document, code = args.func(args, tol, seed)
        except CommandError as exc:
            if exc.document is None:
                raise
            document, failure = exc.document, exc
        if isinstance(document, dict):
            if "meta" not in document:  # else the verb placed it (qubit optimal)
                document = {"meta": None, **document}
            document["meta"] = _meta(tol, seed)
            document = dump_json(document)
        _write_output(args.out, document)
        if failure is not None:
            raise failure
        return code
    except CommandError as exc:
        print(f"povmlab: {exc}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"povmlab: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, KeyError) as exc:
        print(f"povmlab: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolverError as exc:
        print(f"povmlab: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
