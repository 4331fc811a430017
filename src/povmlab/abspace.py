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

from .hs import DEFAULT_TOL, Tolerances, dagger, hs_norm, vectorize
from .povm import Observable, Povm


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


def vandermonde_recovery(X: Observable, tol: Tolerances = DEFAULT_TOL) -> VandermondeRecovery:
    """Invert the Vandermonde system on the clustered spectrum of X.

    Emits :class:`IllConditionedWarning` for spectra that are large
    (s > 12) or numerically nearly degenerate, in which case the recovered
    probabilities lose accuracy.
    """
    x = X.eigenvalues
    s = len(x)
    V = np.vander(x, N=s, increasing=True)  # V[k, j] = x_k^j
    condition = float(np.linalg.cond(V)) if s > 1 else 1.0
    if s > 12 or condition > 1.0 / tol.eig_zero:
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
    basis: np.ndarray  # (k, d, d) orthonormal in the HS inner product
    projector: np.ndarray  # (d^2, d^2)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, X, tol: Tolerances = DEFAULT_TOL) -> bool:
        v = vectorize(np.asarray(X, dtype=complex))
        return float(np.linalg.norm(v - self.projector @ v)) <= tol.lin_solve


def _orthonormalize(candidates, tol: Tolerances) -> list[np.ndarray]:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Candidates are processed in the given (deterministic) order; vectors
    whose residual shrinks below ``eig_zero`` times their original norm
    are dependent on the earlier ones and dropped.
    """
    basis: list[np.ndarray] = []
    for cand in candidates:
        original = hs_norm(cand)
        if original == 0.0:
            continue
        v = cand.astype(complex).copy()
        for _ in range(2):
            for b in basis:
                v = v - np.vdot(b, v) * b
        residual = hs_norm(v)
        if residual > tol.eig_zero * original:
            basis.append(v / residual)
    return basis


def ab_space(A: Observable, B: Observable, tol: Tolerances = DEFAULT_TOL) -> ABSpace:
    """Build ``Span{A^n, B^n}`` with an orthonormal basis and its projector.

    The candidate order is the identity, then ascending powers of A, then
    ascending powers of B, so rebuilding with the same inputs gives the
    identical basis.
    """
    if A.dim != B.dim:
        raise ValueError("observables must act on the same space")
    d = A.dim
    candidates = [np.eye(d, dtype=complex)]
    candidates.extend(independent_powers(A)[1:])
    candidates.extend(independent_powers(B)[1:])
    basis = _orthonormalize(candidates, tol)
    stacked = np.stack(basis)
    vecs = np.stack([vectorize(b) for b in basis], axis=1)
    projector = vecs @ dagger(vecs)
    stacked.setflags(write=False)
    projector.setflags(write=False)
    return ABSpace(a=A, b=B, basis=stacked, projector=projector)


def is_ab_infocomplete(P: Povm, S: ABSpace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Does the span of P contain the whole power subspace?

    When true, the statistics of P determine every moment of A and of B,
    hence the full spectral probability distributions of both.
    """
    Pi_S = S.projector
    Pi_P = P.span_projector
    return float(np.linalg.norm(Pi_S @ Pi_P - Pi_S)) <= tol.lin_solve


def is_minimal_ab_infocomplete(P: Povm, S: ABSpace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """AB-infocomplete with nothing to spare: Span(P) equals the power subspace."""
    return (
        is_ab_infocomplete(P, S, tol)
        and float(np.linalg.norm(P.span_projector - S.projector)) <= tol.lin_solve
    )


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of projecting a POVM onto a power subspace."""

    ok: bool
    povm: Povm | None
    projected: np.ndarray  # raw projected elements, kept even on failure
    failures: list  # (index, min eigenvalue) for non-positive projections


def project_povm(P: Povm, S: ABSpace, tol: Tolerances = DEFAULT_TOL) -> ProjectionResult:
    """Project every element of P onto the subspace, checking positivity.

    The projections always sum to the identity (the identity lies in the
    subspace), and for the qubit plane span{1, sx, sy} they are always
    positive; in higher dimension positivity can fail, in which case the
    offending indices and their minimum eigenvalues are reported.
    """
    projected = np.stack(
        [(S.projector @ vectorize(m)).reshape(P.dim, P.dim) for m in P.elements]
    )
    failures = []
    for i, q in enumerate(projected):
        herm = 0.5 * (q + dagger(q))
        lo = float(np.linalg.eigvalsh(herm)[0])
        if lo < -tol.psd_slack:
            failures.append((i, lo))
    if failures:
        return ProjectionResult(False, None, projected, failures)
    return ProjectionResult(
        True,
        Povm(projected, labels=P.labels, tol=tol),
        projected,
        [],
    )
