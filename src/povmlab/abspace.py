"""Subspaces spanned by powers of two observables, and projections onto them.

For observables A and B with ``s_A`` and ``s_B`` distinct eigenvalues,
``Span{A^n, B^n : n >= 0}`` has dimension at most ``s_A + s_B - 1`` (the
identity is shared) and contains every spectral projector of either
observable, recoverable from the moments through an inverse Vandermonde
matrix.  A POVM whose span contains this subspace can estimate every
function of A and of B; projecting its elements onto the subspace yields
a smaller-span candidate measurement whose positivity, however, is not
guaranteed beyond the qubit case.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hs import coords, from_coords, off_span
from .povm import Observable, Povm, _element_rules, is_r_infocomplete


class IllConditionedWarning(UserWarning):
    """The Vandermonde system is large or badly conditioned."""


def independent_powers(X: Observable) -> np.ndarray:
    """The stacked linearly independent powers ``1, X, ..., X^(s-1)``.

    Higher powers are linear combinations of these by the minimal
    polynomial of X, whose degree equals the number of distinct
    eigenvalues.
    """
    d, s = X.dim, X.spectrum_size
    powers = np.empty((s, d, d), dtype=complex)
    powers[0] = np.eye(d)
    for n in range(1, s):
        powers[n] = powers[n - 1] @ X.operator
    return powers


@dataclass(frozen=True)
class VandermondeRecovery:
    """Spectral projectors of an observable as combinations of its powers.

    ``W`` is the inverse of the Vandermonde matrix ``V[k, j] = x_k^j`` built
    on the distinct eigenvalues, so that ``X_h = sum_j W[j, h] X^j`` and
    outcome probabilities follow from moments:
    ``Tr[rho X_h] = sum_j W[j, h] Tr[rho X^j]``.
    """

    observable: Observable
    W: np.ndarray
    condition: float

    def probabilities_from_moments(self, moments) -> np.ndarray:
        """Map the moment vector ``(Tr[rho X^j])_j`` to spectral probabilities."""
        moments = np.asarray(moments, dtype=float)
        if moments.shape != (self.W.shape[0],):
            raise ValueError(f"expected {self.W.shape[0]} moments, got {moments.shape}")
        return self.W.T @ moments


def vandermonde_recovery(X: Observable) -> VandermondeRecovery:
    """Invert the Vandermonde system on the clustered spectrum of X.

    Emits :class:`IllConditionedWarning` for spectra that are large
    (s > 12) or numerically nearly degenerate, in which case the recovered
    probabilities lose accuracy.
    """
    x = X.eigenvalues
    s = len(x)
    V = np.vander(x, N=s, increasing=True)  # V[k, j] = x_k^j
    condition = float(np.linalg.cond(V)) if s > 1 else 1.0
    if s > 12 or condition > 1.0 / X.tol.eig_zero:
        warnings.warn(
            f"Vandermonde system of size {s} has condition number {condition:.3e}; "
            "recovered probabilities may be inaccurate",
            IllConditionedWarning,
            stacklevel=2,
        )
    W = np.linalg.solve(V, np.eye(s)) if s > 1 else np.ones((1, 1))
    return VandermondeRecovery(observable=X, W=W, condition=condition)


@dataclass(frozen=True)
class ABSpace:
    """Orthonormalized span of the powers of two observables."""

    a: Observable
    b: Observable
    columns: np.ndarray  # real d^2 x k, the HS coordinates of an orthonormal basis

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    @property
    def basis(self) -> np.ndarray:
        """The orthonormal basis as a stacked ``(k, d, d)`` array of self-adjoint operators."""
        return from_coords(self.columns.T)

    def contains(self, X) -> bool:
        return float(np.linalg.norm(off_span(self.columns, coords(X)))) <= self.a.tol.lin_solve


def ab_space(A: Observable, B: Observable) -> ABSpace:
    """Build ``Span{A^n, B^n}`` with an orthonormal basis.

    Gram-Schmidt with one re-orthogonalization pass over the candidates in
    the order identity, ascending powers of A, ascending powers of B, so
    rebuilding with the same inputs gives the identical basis.  A candidate
    whose residual is at most ``A.tol.eig_zero`` times its own norm depends
    on the earlier ones and is dropped.
    """
    if A.dim != B.dim:
        raise ValueError("observables must act on the same space")
    d = A.dim
    candidates = coords(np.concatenate(
        [np.eye(d)[None], independent_powers(A)[1:], independent_powers(B)[1:]]
    )).real
    U = np.empty((d * d, 0))
    for cand in candidates:
        v = off_span(U, off_span(U, cand))
        residual = np.linalg.norm(v)
        if residual > A.tol.eig_zero * np.linalg.norm(cand):
            U = np.column_stack([U, v / residual])
    U.setflags(write=False)
    return ABSpace(a=A, b=B, columns=U)


def is_ab_infocomplete(P: Povm, S: ABSpace) -> bool:
    """Does the span of P contain the whole power subspace?

    That is :func:`povm.is_r_infocomplete` with ``R = Span{A^n, B^n}``.  When
    true, the statistics of P determine every moment of A and of B, hence
    the full spectral probability distributions of both.
    """
    return is_r_infocomplete(P, S.basis)


def is_minimal_ab_infocomplete(P: Povm, S: ABSpace) -> bool:
    """AB-infocomplete with nothing to spare: Span(P) equals the power subspace."""
    return is_ab_infocomplete(P, S) and P.span_rank == S.dim


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of projecting a POVM onto a power subspace."""

    ok: bool
    povm: Povm | None
    projected: np.ndarray  # raw projected elements, kept even on failure
    failures: list  # (index, min eigenvalue) for non-positive projections


def project_povm(P: Povm, S: ABSpace) -> ProjectionResult:
    """Project every element of P onto the subspace, checking positivity.

    The projections always sum to the identity (the identity lies in the
    subspace), and for the qubit plane span{1, sx, sy} they are always
    positive; in higher dimension positivity can fail, in which case the
    offending indices and their minimum eigenvalues are reported.
    """
    U = S.columns
    projected = from_coords((U @ (U.T @ P.design_matrix)).T)
    # the projections are self-adjoint, so the only rule they can break is positivity
    _, lowest, broken = _element_rules(projected, P.tol)
    failures = [(int(i), float(lowest[i])) for i in np.flatnonzero(broken)]
    if failures:
        return ProjectionResult(False, None, projected, failures)
    return ProjectionResult(
        True,
        Povm(projected, labels=P.labels, tol=P.tol),
        projected,
        [],
    )
