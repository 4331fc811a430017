"""Data-processing functions and estimation-error functionals.

Measuring a POVM ``P`` and averaging a coefficient array ``c`` over the
outcome statistics estimates ``<X> = Tr[rho X]`` whenever
``sum_i c_i P_i = X``.  Coefficients of that kind come from dual frames;
this module builds them, evaluates single-state and ensemble-averaged
statistical errors, and computes the dual frame that minimizes the
ensemble error together with the corresponding minimum.  The ensemble is
an input, like the POVM: :class:`povm.Ensemble` lives beside ``Povm`` and
is imported here under the same name.  A target need not be self-adjoint:
its estimate is then complex, and every error is the variance
``E|c|^2 - |<X>|^2`` of a complex estimator.

The ensemble-optimal dual shifts the canonical coefficients along the null
space of the design matrix V to minimize ``sum_i pi_i |c_i|^2``, with
``pi_i`` the barycenter probability of outcome i.  It is computed in the
span, from the truncated SVD of V that the POVM caches and one thin QR
factorization, and is the canonical dual when the elements are linearly
independent.  The barycenter probabilities, and then the duals, are cached
per ensemble on ``P.by_ensemble``, where every function reads them.
Outcomes with ``pi_i <= P.tol.eig_zero`` cost nothing: the live outcomes
are weighted off the span of the dead ones, the dead duals complete the
resolution, and a :class:`DegenerateMetricWarning` is raised.  That span
comes from a truncated SVD of the dead columns, completed by QR as
``Povm.null_basis`` completes the POVM's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hs import (
    OutsideSpanError,
    as_operator,
    coords,
    off_span,
    orthogonal_complement,
    truncated_svd,
)
from .povm import DualFrame, Ensemble, Povm


class DegenerateMetricWarning(UserWarning):
    """Some outcome has probability zero under the ensemble barycenter."""


def metric_diagonal(P: Povm, ensemble: Ensemble) -> np.ndarray:
    """Outcome probabilities ``pi_i = Tr[rho_E P_i]`` of P under the ensemble barycenter.

    The diagonal of the metric the optimal dual minimizes, as a read-only
    vector.  Entries below ``-P.tol.psd_slack`` are rejected; smaller
    negatives are clipped to zero.  Cached per ensemble on ``P.by_ensemble``.
    """
    if ensemble in P.by_ensemble:
        return P.by_ensemble[ensemble][1]
    pi = P.probabilities(ensemble.barycenter)
    if np.any(pi < -P.tol.psd_slack):
        raise ValueError("metric entries are probabilities and cannot be negative")
    pi = np.clip(pi, 0.0, None)
    pi.setflags(write=False)
    P.by_ensemble[ensemble] = (None, pi)
    return pi


@dataclass(frozen=True)
class ProcessingFunction:
    """Coefficients ``c_i`` estimating ``<X>`` from the statistics of one POVM."""

    target: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        t = as_operator(self.target)
        c = np.asarray(self.coefficients, dtype=complex)
        if c.ndim != 1:
            raise ValueError("coefficients must form a vector")
        t.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "target", t)
        object.__setattr__(self, "coefficients", c)


def _target(P: Povm, X):
    """``X`` as an operator and its HS coordinates, checked to be a target P can estimate."""
    X = as_operator(X)
    if X.shape[0] != P.dim:
        raise ValueError(f"target dimension {X.shape[0]} != POVM dimension {P.dim}")
    x = coords(X)
    residual = np.linalg.norm(off_span(P.svd[0], x))
    if residual > P.tol.lin_solve:
        raise OutsideSpanError(residual, "target observable")
    return X, x


def processing_from_dual(D: DualFrame, X) -> ProcessingFunction:
    """Coefficients ``c_i = Tr[D_i^dag X]`` for a span-contained target X."""
    X, x = _target(D.povm, X)
    return ProcessingFunction(X, D.coords.conj().T @ x)


def statistical_error(P: Povm, c: ProcessingFunction, rho) -> float:
    """Per-measurement variance ``sum_i |c_i|^2 Tr[rho P_i] - |<X>_rho|^2``."""
    probs = P.probabilities(rho)
    mean = np.trace(as_operator(rho) @ c.target)
    return float(np.dot(np.abs(c.coefficients) ** 2, probs) - abs(mean) ** 2)


def ensemble_error(P: Povm, c: ProcessingFunction, ensemble: Ensemble) -> float:
    """Ensemble-averaged statistical error.

    Equals ``sum_i |c_i|^2 Tr[rho_E P_i] - avg_j |<X>_{rho_j}|^2``, which is
    also the q-weighted average of the single-state errors.
    """
    pi = metric_diagonal(P, ensemble)
    return float(np.dot(np.abs(c.coefficients) ** 2, pi) - ensemble.second_moment(c.target))


def _optimal(P: Povm, ensemble: Ensemble):
    """Optimal duals' d^2 x N coordinates and barycenter probabilities, cached on P per ensemble."""
    tol = P.tol
    pi = metric_diagonal(P, ensemble)
    duals = P.by_ensemble[ensemble][0]
    if duals is None:
        live = pi > tol.eig_zero
        U, s, Vh = P.svd
        if len(s) == len(P):  # independent elements: the dual is unique
            duals = P.canonical_coords
        else:
            A = s[:, None] * Vh  # V in the span basis U
            basis, A_L = U, A[:, live]
            if not live.all():
                # B spans the part of the span off the dead elements
                U_D, s_D, Vh_D = truncated_svd(A[:, ~live], tol)
                B = orthogonal_complement(U_D)
                basis, A_L = U @ B, B.T @ A_L
            root = np.sqrt(pi[live])
            Q, R = np.linalg.qr((A_L / root).T)
            duals = np.empty(P.design_matrix.shape)
            duals[:, live] = np.linalg.solve(R.T, basis.T).T @ Q.T / root
            if not live.all():
                W_D = (U @ U_D / s_D) @ Vh_D  # (V_D^+)^dag
                duals[:, ~live] = W_D - duals[:, live] @ (P.design_matrix[:, live].T @ W_D)
        duals.setflags(write=False)
        P.by_ensemble[ensemble] = (duals, pi)
    dead = int(np.count_nonzero(pi <= tol.eig_zero))
    if dead:
        warnings.warn(
            f"{dead} outcome(s) have zero probability under the ensemble barycenter; "
            "their coefficients cost nothing and take the minimum-norm values "
            "that complete the dual",
            DegenerateMetricWarning,
            stacklevel=3,
        )
    return duals, pi


def optimal_dual(P: Povm, ensemble: Ensemble) -> DualFrame:
    """Dual frame minimizing the ensemble error for every span-contained target.

    With ``pi_i = Tr[rho_E P_i]`` the barycenter outcome probabilities, a
    target's coefficients ``c + K a`` (``c`` the canonical dual's, K a
    basis of V's null space) cost ``sum_i pi_i |c_i + (K a)_i|^2``.  One
    ``a`` minimizes it for every target: ``D_i = G^+ P_i / pi_i`` with
    ``G = sum_i |P_i><P_i| / pi_i``.  With ``A = diag(s) Vh`` the design
    matrix in the span basis U of ``P.svd``, that is
    ``D = U (A Pi^-1 A^T)^-1 A Pi^-1 = U R^-1 Q^T Pi^-1/2`` for the thin QR
    factorization ``(A Pi^-1/2)^T = Q R``: ``O(N r^2)`` work, no N x N
    matrix, and A's condition number is not squared.  When the elements
    are linearly independent, K is empty and the canonical dual is
    returned.  The duals are cached on ``P`` per ensemble.

    Outcomes with ``pi_i <= P.tol.eig_zero`` (the dead set D) cost nothing
    in the ensemble error, so their coefficients are free, and a
    :class:`DegenerateMetricWarning` is raised.  The live outcomes L solve
    the same problem in the part of the span off ``span(V_D)``, and the
    dead ones take the minimum-norm completion
    ``D_D^dag = V_D^+ (Pi - V_L D_L^dag)``, with ``Pi`` the span projector.
    """
    return DualFrame(_optimal(P, ensemble)[0], P)


def min_error(P: Povm, ensemble: Ensemble, X) -> float:
    """Minimum ensemble error over all processing functions for target X.

    The ensemble error of the optimal dual, ``sum_i pi_i |<D_i|X>|^2 -
    avg_j |<X>_{rho_j}|^2``: the canonical coefficients of X shifted along
    the null space of V, with the duals taken from the per-ensemble cache of
    :func:`optimal_dual`, so each further target costs one N x d^2 product.
    When every outcome has positive probability this is
    ``<X| G^+ |X> - avg_j |<X>_{rho_j}|^2``.  Zero-probability outcomes cost
    nothing, so their coefficients are left free, as in
    :func:`optimal_dual`, with the same warning.
    """
    X, x = _target(P, X)
    duals, pi = _optimal(P, ensemble)
    c = duals.T @ x
    return float(np.dot(np.abs(c) ** 2, pi)) - ensemble.second_moment(X)
