"""Hilbert-Schmidt vector calculus for finite-dimensional operators.

Self-adjoint operators on a d-dimensional Hilbert space are treated as
vectors of the real d^2-dimensional Hilbert-Schmidt (HS) space.  An
operator's vector is its list of coordinates ``<E_k|X> = Tr[E_k X]`` in a
fixed real orthonormal basis of self-adjoint operators: the diagonal units
``|m><m|``, then ``(|m><n| + |n><m|)/sqrt(2)`` and then
``i(|m><n| - |n><m|)/sqrt(2)`` for ``m < n`` in ``np.triu_indices`` order.
:func:`coords` and :func:`from_coords` are the only maps between operators
and vectors.  A self-adjoint operator has real coordinates, and the HS
inner product ``<X|Y> = Tr[X^dag Y]`` is the ordinary dot product of the
coordinate vectors.  Both maps are C-linear and isometric, so complex and
non-self-adjoint operators keep working, with complex coordinates.

Every span question (is an operator, or a whole subspace, inside the span
of some operators?) is answered one way: the Frobenius norm of
:func:`off_span` against an orthonormal basis of the span.

Everything in this module works on plain ``numpy`` arrays; the
higher-level modules wrap them in richer types.

Tolerances (:class:`Tolerances`) follow one rule.  An object (``Povm``,
``Observable``, ``Ensemble``, ``MarkovMatrix``) keeps the ``tol`` it was
built with.  A function of several objects reads the POVM's tolerance,
or else its first argument's (``ab_space`` reads ``A.tol``,
``vandermonde_recovery`` its observable's), and takes no ``tol`` of its
own.  The exceptions: :func:`truncated_svd` and :func:`span_basis` work
on bare arrays and operators, so they take ``tol`` directly, as do
``montecarlo.empirical_estimate`` and ``povm.povm_report``, whose inputs
carry none; and ``postproc.unbias`` matches the blur's outcome labels
to the observable's eigenvalues at the observable's ``lin_solve``, the
second argument's, because the eigenvalues are the observable's.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the package.

    Attributes
    ----------
    eig_zero:
        Relative cutoff below which eigenvalues/singular values count as
        zero (measured against the largest one of the matrix at hand).
        Controls numerical rank decisions and pseudoinverse truncation.
    psd_slack:
        How far below zero the minimum eigenvalue of a nominally positive
        semidefinite matrix may dip before it is rejected.
    lin_solve:
        Acceptable residual for linear identities (completeness sums,
        span membership, resolution-of-identity checks, ...).
    cluster:
        Eigenvalues closer than this are treated as a single degenerate
        eigenvalue when building spectral decompositions.
    """

    eig_zero: float = 1e-10
    psd_slack: float = 1e-10
    lin_solve: float = 1e-9
    cluster: float = 1e-8

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if not (value > 0.0 and np.isfinite(value)):
                raise ValueError(f"tolerance {name!r} must be positive and finite, got {value!r}")


DEFAULT_TOL = Tolerances()


class OutsideSpanError(ValueError):
    """Target operator is not contained in the span of the POVM elements."""

    def __init__(self, residual: float, what: str = "operator"):
        self.residual = residual
        super().__init__(
            f"{what} lies outside the span of the POVM elements "
            f"(projection residual {residual:.6e}); its expectation cannot be "
            f"estimated from these statistics"
        )


class SolverError(RuntimeError):
    """HiGHS stopped short of an optimal solution; ``status`` is its model status."""

    def __init__(self, status: str):
        self.status = status
        super().__init__(f"least-blur LP not solved: HiGHS model status {status}")


def _check_seed(seed) -> int:
    """The seed as a Philox key: an integer in [0, 2**128)."""
    message = f"seed must be an integer in [0, 2**128), got {seed!r}"
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(message) from None
    if not 0 <= seed < 1 << 128:
        raise ValueError(message)
    return seed


def as_operator(x) -> np.ndarray:
    """Coerce ``x`` to a square complex matrix, rejecting anything else."""
    X = np.asarray(x, dtype=complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("operator entries must be finite")
    return X


def dagger(X: np.ndarray) -> np.ndarray:
    """Hermitian adjoint (a transposed view for real arrays)."""
    return np.asarray(X).conj().T


_SQRT_HALF = np.sqrt(0.5)


@lru_cache(maxsize=None)
def _coord_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat positions of the diagonal, the upper (m < n) and the mirrored lower entries."""
    m, n = np.triu_indices(d, 1)
    index = (np.arange(d) * (d + 1), m * d + n, n * d + m)
    for positions in index:  # shared by every caller
        positions.setflags(write=False)
    return index


def coords(X) -> np.ndarray:
    """HS coordinates ``<E_k|X>`` of a ``(..., d, d)`` stack: a ``(..., d^2)`` array.

    The basis is the one of the module docstring.  The coordinates of a
    self-adjoint operator are real, and a result whose imaginary parts all
    lie within ``np.real_if_close``'s 100 machine epsilons of zero comes
    back as a real array.
    """
    X = np.asarray(X)
    d = X.shape[-1]
    diag, upper, lower = _coord_index(d)
    flat = X.reshape(X.shape[:-2] + (d * d,))
    up, lo = flat[..., upper], flat[..., lower]
    v = np.concatenate(
        [flat[..., diag], _SQRT_HALF * (up + lo), 1j * _SQRT_HALF * (lo - up)], axis=-1
    )
    return np.ascontiguousarray(np.real_if_close(v))


def from_coords(v) -> np.ndarray:
    """The complex ``(..., d, d)`` operators with HS coordinates ``v`` (shape ``(..., d^2)``).

    Inverse of :func:`coords`; real coordinates give self-adjoint operators.
    """
    v = np.asarray(v)
    d = int(np.sqrt(v.shape[-1]) + 0.5)
    if d * d != v.shape[-1]:
        raise ValueError(f"{v.shape[-1]} coordinates do not form a square operator")
    diag, upper, lower = _coord_index(d)
    sym, anti = v[..., d:(d * d + d) // 2], v[..., (d * d + d) // 2:]
    flat = np.empty(v.shape[:-1] + (d * d,), dtype=complex)
    flat[..., diag] = v[..., :d]
    flat[..., upper] = _SQRT_HALF * (sym + 1j * anti)
    flat[..., lower] = _SQRT_HALF * (sym - 1j * anti)
    return flat.reshape(v.shape[:-1] + (d, d))


def truncated_svd(V: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Thin SVD ``V = U diag(s) Vh`` cut to the singular values above ``tol.eig_zero * s[0]``.

    The kept factors carry the numerical rank (``len(s)``), the projector
    onto the column span (``U U^dag``) and the pseudoinverse
    (``Vh^dag diag(1/s) U^dag``), all with one cutoff.
    """
    U, s, Vh = np.linalg.svd(V, full_matrices=False)
    r = int(np.count_nonzero(s > tol.eig_zero * s[0])) if s.size else 0
    return U[:, :r], s[:r], Vh[:r]


def orthogonal_complement(Q: np.ndarray) -> np.ndarray:
    """Orthonormal basis (n x (n - k) columns) of the complement of ``Q``'s span.

    ``Q`` is n x k with orthonormal columns, e.g. a kept factor of
    :func:`truncated_svd`.  The trailing columns of a complete QR
    factorization of ``Q``, which forms an n x n factor; real when ``Q`` is.
    """
    return np.linalg.qr(Q, mode="complete")[0][:, Q.shape[1]:]


def off_span(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The part of ``V`` off the span of ``U``'s columns: ``V - U (U^dag V)``.

    ``U`` must have orthonormal columns, e.g. the kept left factor of
    :func:`truncated_svd`.  ``V`` is a vector or a matrix of column vectors;
    the norm of the result is their distance from the span.
    """
    return V - U @ (dagger(U) @ V)


def span_basis(operators, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (d^2 x r columns) of the HS span of ``operators``.

    The left factor of :func:`truncated_svd` of the matrix whose columns are
    the operators' coordinates, so directions with singular value at most
    ``tol.eig_zero`` times the largest are discarded.  The basis is real
    when the operators are self-adjoint.
    """
    ops = [as_operator(op) for op in operators]
    if not ops:
        raise ValueError("need at least one operator")
    d = ops[0].shape[0]
    if any(op.shape != (d, d) for op in ops):
        raise ValueError("operators must share one dimension")
    return truncated_svd(coords(np.stack(ops)).T, tol)[0]
