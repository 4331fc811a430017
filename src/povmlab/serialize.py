"""JSON interchange for operators, POVMs, observables, ensembles, Markov matrices.

The operator form ``{"dim": d, "re": [[...]], "im": [[...]]}`` with
row-major real and imaginary parts is the canonical format used by every
file the command line consumes or emits.  Emission is deterministic:
fixed key order, two-space indent, shortest round-trippable floats.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .hs import DEFAULT_TOL, Tolerances, as_operator
from .postproc import MarkovMatrix
from .povm import Observable, Povm
from .processing import Ensemble


class SchemaError(ValueError):
    """A parsed document does not match the expected layout."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ParseError(ValueError):
    """A file is not valid JSON; carries line/column diagnostics."""

    def __init__(self, filename: str, line: int, column: int, message: str):
        self.filename = filename
        self.line = line
        self.column = column
        super().__init__(f"{filename}:{line}:{column}: {message}")


def _require(obj, key: str, path: str):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(path, f"missing key '{key}'")
    return obj[key]


def _number(obj, key: str, path: str, integer: bool = False):
    """``obj[key]`` as a float, or as a positive int when ``integer``.

    JSON ``true`` is no number (``float(True)`` is 1.0), and an integer too
    large for a float is out of range.
    """
    value, where = _require(obj, key, path), f"{path}.{key}"
    if integer:
        if type(value) is int and value >= 1:
            return value
        raise SchemaError(where, f"expected a positive integer (JSON integers only), got {value!r}")
    if type(value) not in (int, float):
        raise SchemaError(where, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(where, "number too large for a float") from None


def _real_matrix(rows, shape: tuple[int, int], path: str) -> np.ndarray:
    try:
        M = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(path, f"not a numeric matrix ({exc})") from None
    if M.shape != shape:
        raise SchemaError(path, f"expected shape {shape}, got {M.shape}")
    if bool in map(type, itertools.chain.from_iterable(rows)):  # float(True) is 1.0
        raise SchemaError(path, "expected numbers, got a boolean")
    if not np.isfinite(M).all():
        raise SchemaError(path, "entries must be finite")
    return M


# ---------------------------------------------------------------------------
# Operator

def operator_to_json(X) -> dict:
    X = as_operator(X)
    return {
        "dim": X.shape[0],
        "re": X.real.tolist(),
        "im": X.imag.tolist(),
    }


def operator_from_json(obj, path: str = "operator") -> np.ndarray:
    d = _number(obj, "dim", path, integer=True)
    re = _real_matrix(_require(obj, "re", path), (d, d), f"{path}.re")
    im = _real_matrix(_require(obj, "im", path), (d, d), f"{path}.im")
    return re + 1j * im


# ---------------------------------------------------------------------------
# Povm

def povm_to_json(P: Povm) -> dict:
    out = {
        "dim": P.dim,
        "elements": [operator_to_json(m) for m in P.elements],
    }
    if P.labels is not None:
        out["labels"] = [_label_text(lab) for lab in P.labels]
    return out


def _label_text(lab) -> str:
    if isinstance(lab, float):
        return repr(lab)
    return str(lab)


def povm_from_json(obj, tol: Tolerances = DEFAULT_TOL, path: str = "povm") -> Povm:
    d = _number(obj, "dim", path, integer=True)
    elements_json = _require(obj, "elements", path)
    if not isinstance(elements_json, list) or not elements_json:
        raise SchemaError(f"{path}.elements", "expected a nonempty array")
    elements = []
    for i, e in enumerate(elements_json):
        m = operator_from_json(e, f"{path}.elements[{i}]")
        if m.shape[0] != d:
            raise SchemaError(
                f"{path}.elements[{i}]", f"dimension {m.shape[0]} != povm dim {d}"
            )
        elements.append(m)
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != len(elements):
            raise SchemaError(f"{path}.labels", "expected one label per element")
        labels = [str(lab) for lab in labels]
    return Povm(elements, labels=labels, tol=tol)


# ---------------------------------------------------------------------------
# Observable

def observable_to_json(X: Observable) -> dict:
    # eigen-data is recomputed on load, never stored
    return {"operator": operator_to_json(X.operator)}


def observable_from_json(obj, tol: Tolerances = DEFAULT_TOL,
                         path: str = "observable") -> Observable:
    return Observable(operator_from_json(_require(obj, "operator", path),
                                         f"{path}.operator"), tol=tol)


# ---------------------------------------------------------------------------
# Ensemble

def ensemble_to_json(E: Ensemble) -> dict:
    return {
        "states": [
            {"q": float(q), "rho": operator_to_json(rho)}
            for q, rho in zip(E.weights, E.states)
        ]
    }


def ensemble_from_json(obj, tol: Tolerances = DEFAULT_TOL,
                       path: str = "ensemble") -> Ensemble:
    states_json = _require(obj, "states", path)
    if not isinstance(states_json, list) or not states_json:
        raise SchemaError(f"{path}.states", "expected a nonempty array")
    weights, states = [], []
    for i, entry in enumerate(states_json):
        weights.append(_number(entry, "q", f"{path}.states[{i}]"))
        states.append(operator_from_json(_require(entry, "rho", f"{path}.states[{i}]"),
                                         f"{path}.states[{i}].rho"))
    return Ensemble(weights, states, tol=tol)


# ---------------------------------------------------------------------------
# MarkovMatrix

def markov_to_json(M: MarkovMatrix) -> dict:
    return {
        "rows": M.rows,
        "cols": M.cols,
        "m": M.m.tolist(),
    }


def markov_from_json(obj, tol: Tolerances = DEFAULT_TOL,
                     path: str = "markov") -> MarkovMatrix:
    rows = _number(obj, "rows", path, integer=True)
    cols = _number(obj, "cols", path, integer=True)
    m = _real_matrix(_require(obj, "m", path), (rows, cols), f"{path}.m")
    return MarkovMatrix(m, tol=tol)


# ---------------------------------------------------------------------------
# Files

def load_json_file(filename: str):
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(filename, 0, 0, str(exc)) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(filename, exc.lineno, exc.colno, exc.msg) from None
    except ValueError as exc:  # an integer past Python's integer-string limit (4300 digits)
        raise ParseError(filename, 0, 0, str(exc).partition(":")[0]) from None
    except RecursionError:
        raise ParseError(filename, 0, 0, "arrays or objects nested too deeply") from None


def dump_json(obj) -> str:
    """Deterministic rendering: fixed key order, indent 2, trailing newline."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def save_json_file(filename: str, obj) -> None:
    with open(filename, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_json(obj))
