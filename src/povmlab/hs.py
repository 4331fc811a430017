"""Hilbert-Schmidt vector calculus for finite-dimensional operators.

Self-adjoint operators on a d-dimensional Hilbert space are treated as
vectors of the d^2-dimensional Hilbert-Schmidt (HS) space.  The flattening
convention is row-major: ``vectorize(X)[d*m + n] == X[m, n]``, so that the
HS inner product ``<X|Y> = Tr[X^dag Y]`` is the ordinary complex dot
product of the flattened arrays and ``(A (x) B)|X> = |A X B^T>``.

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


def vectorize(X: np.ndarray) -> np.ndarray:
    """Flatten a d x d operator into a length-d^2 HS vector (row-major)."""
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {X.shape}")
    return X.reshape(-1)


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`; requires a perfect-square length."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a flat vector, got shape {v.shape}")
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"length {v.size} is not a perfect square")
    return v.reshape(d, d)


def hs_inner(X: np.ndarray, Y: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product ``Tr[X^dag Y]`` (conjugate-linear in X)."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    if X.shape != Y.shape:
        raise ValueError(f"dimension mismatch: {X.shape} vs {Y.shape}")
    return complex(np.vdot(X, Y))


def hs_norm(X: np.ndarray) -> float:
    """Frobenius norm, i.e. the norm induced by :func:`hs_inner`."""
    return float(np.linalg.norm(X))


def swap_transpose(X: np.ndarray) -> np.ndarray:
    """Transpose of ``X``; the action of the HS swap operator on |X>."""
    return np.asarray(X, dtype=complex).T.copy()


def swap_operator(d: int) -> np.ndarray:
    """Dense d^2 x d^2 matrix E with ``E @ vectorize(X) == vectorize(X.T)``.

    E exchanges the two tensor factors: ``E (|phi> (x) |psi>) = |psi> (x) |phi>``.
    """
    E = np.zeros((d * d, d * d))
    for m in range(d):
        for n in range(d):
            E[m * d + n, n * d + m] = 1.0
    return E


def kron_action(A: np.ndarray, B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Apply the superoperator ``A (x) B`` to |X>, i.e. return ``A X B^T``."""
    A = as_operator(A)
    B = as_operator(B)
    X = as_operator(X)
    if not (A.shape == B.shape == X.shape):
        raise ValueError("A, B and X must share one dimension")
    return A @ X @ B.T


def hermitian_part(X: np.ndarray) -> np.ndarray:
    return 0.5 * (X + dagger(X))


def is_hermitian(X: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    X = as_operator(X)
    return float(np.linalg.norm(X - dagger(X))) <= tol.lin_solve


def min_eigenvalue(X: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of ``X``."""
    return float(np.linalg.eigvalsh(hermitian_part(as_operator(X)))[0])


def is_psd(X: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Check positive semidefiniteness of a self-adjoint operator.

    Raises
    ------
    ValueError
        If ``X`` is not self-adjoint within ``tol.lin_solve``; positivity
        is only meaningful for self-adjoint operators.
    """
    X = as_operator(X)
    deviation = float(np.linalg.norm(X - dagger(X)))
    if deviation > tol.lin_solve:
        raise ValueError(f"operator is not self-adjoint (deviation {deviation:.3e})")
    return min_eigenvalue(X) >= -tol.psd_slack


def truncated_svd(V: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Thin SVD ``V = U diag(s) Vh`` cut to the singular values above ``tol.eig_zero * s[0]``.

    The kept factors carry the numerical rank (``len(s)``), the projector
    onto the column span (``U U^dag``) and the pseudoinverse
    (``Vh^dag diag(1/s) U^dag``), all with one cutoff.
    """
    U, s, Vh = np.linalg.svd(V, full_matrices=False)
    r = int(np.count_nonzero(s > tol.eig_zero * s[0])) if s.size else 0
    return U[:, :r], s[:r], Vh[:r]


def span_projector(operators, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector (d^2 x d^2) onto the HS span of ``operators``.

    The basis of the span is obtained from the SVD of the matrix whose
    columns are the vectorized operators; directions with singular value
    at most ``tol.eig_zero`` times the largest are discarded.
    """
    ops = [as_operator(op) for op in operators]
    if not ops:
        raise ValueError("need at least one operator")
    d = ops[0].shape[0]
    if any(op.shape != (d, d) for op in ops):
        raise ValueError("operators must share one dimension")
    U, _, _ = truncated_svd(np.stack([vectorize(op) for op in ops], axis=1), tol)
    return U @ dagger(U)
