"""Hilbert-Schmidt vector calculus for finite-dimensional operators.

Self-adjoint operators on a d-dimensional Hilbert space are treated as
vectors of the d^2-dimensional Hilbert-Schmidt (HS) space.  The flattening
convention is row-major: ``X.reshape(-1)[d*m + n] == X[m, n]``, so that the
HS inner product ``<X|Y> = Tr[X^dag Y]`` is the ordinary complex dot
product of the flattened arrays and ``(A (x) B)|X> = |A X B^T>``.

Every span question (is an operator, or a whole subspace, inside the span
of some operators?) is answered one way: the Frobenius norm of
:func:`off_span` against an orthonormal basis of the span.

Everything in this module works on plain complex ``numpy`` arrays; the
higher-level modules wrap them in richer types.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        for name in ("eig_zero", "psd_slack", "lin_solve", "cluster"):
            value = getattr(self, name)
            if not (value > 0.0 and np.isfinite(value)):
                raise ValueError(f"tolerance {name!r} must be positive and finite, got {value!r}")


DEFAULT_TOL = Tolerances()


def as_operator(x) -> np.ndarray:
    """Coerce ``x`` to a square complex matrix, rejecting anything else."""
    X = np.asarray(x, dtype=complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("operator entries must be finite")
    return X


def dagger(X: np.ndarray) -> np.ndarray:
    """Hermitian adjoint."""
    return np.conj(np.transpose(X))


def truncated_svd(V: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Thin SVD ``V = U diag(s) Vh`` cut to the singular values above ``tol.eig_zero * s[0]``.

    The kept factors carry the numerical rank (``len(s)``), the projector
    onto the column span (``U U^dag``) and the pseudoinverse
    (``Vh^dag diag(1/s) U^dag``), all with one cutoff.
    """
    U, s, Vh = np.linalg.svd(V, full_matrices=False)
    r = int(np.count_nonzero(s > tol.eig_zero * s[0])) if s.size else 0
    return U[:, :r], s[:r], Vh[:r]


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
    the flattened operators, so directions with singular value at most
    ``tol.eig_zero`` times the largest are discarded.
    """
    ops = [as_operator(op) for op in operators]
    if not ops:
        raise ValueError("need at least one operator")
    d = ops[0].shape[0]
    if any(op.shape != (d, d) for op in ops):
        raise ValueError("operators must share one dimension")
    return truncated_svd(np.stack(ops).reshape(len(ops), -1).T, tol)[0]
