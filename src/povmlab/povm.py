"""POVMs, frame operators, dual frames and informational completeness.

A POVM with outcomes ``P_1 .. P_N`` is stored as a stacked ``(N, d, d)``
complex array.  Viewed as HS vectors the outcomes form a frame for their
span: the columns of the real d^2 x N design matrix ``V`` of their
coordinates (:func:`hs.coords`).  One truncated SVD of ``V``, cached on
the POVM, gives the span rank, the orthonormal span basis that the span
tests measure against, the span projector and the canonical dual
``(V^+)^dag``.  Its right factor, completed by a QR factorization, gives
an orthonormal basis of the null space of ``V``: the directions in which
the coefficients of any other dual differ from the canonical ones.  The
shifted duals built from an arbitrary operator list complete the linear
machinery used by the estimation routines.  Dual frames are held in the
same coordinates.
"""

from __future__ import annotations

import warnings
import weakref
from collections import Counter
from functools import cached_property

import numpy as np

from .hs import (
    DEFAULT_TOL,
    Tolerances,
    as_operator,
    coords,
    dagger,
    from_coords,
    off_span,
    span_basis,
    truncated_svd,
)


class NotPositiveError(ValueError):
    """A candidate POVM element has a genuinely negative eigenvalue."""

    def __init__(self, index: int, min_eigenvalue: float):
        self.index = index
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"element {index} is not positive semidefinite "
            f"(minimum eigenvalue {min_eigenvalue:.6e})"
        )


class NotCompleteError(ValueError):
    """The candidate elements do not sum to the identity."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"elements do not sum to the identity (residual {residual:.6e})")


class ZeroElementWarning(UserWarning):
    """Zero POVM elements were dropped during validation."""


class Povm:
    """A validated positive operator-valued measure.

    Parameters
    ----------
    elements:
        Sequence or stacked array of N square complex matrices.
    labels:
        Optional outcome labels (kept aligned if zero elements are dropped).
    tol:
        Thresholds for the validity checks.
    validate:
        Skip the checks when building from already-trusted data.
    drop_zero:
        Remove elements with vanishing norm (they occur with probability
        zero) with a warning instead of keeping dead outcomes around.
    """

    def __init__(self, elements, *, labels=None, tol: Tolerances = DEFAULT_TOL,
                 validate: bool = True, drop_zero: bool = True):
        mats = np.array(elements, dtype=complex)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"operator must be a square matrix, got shape {mats.shape[1:]}")
        if not np.all(np.isfinite(mats)):
            raise ValueError("operator entries must be finite")
        if labels is not None:
            labels = list(labels)
            if len(labels) != mats.shape[0]:
                raise ValueError("one label per element required")

        position = np.arange(mats.shape[0])  # input index of each kept element
        if drop_zero:
            keep = np.linalg.norm(mats, axis=(1, 2)) > tol.psd_slack
            if not np.all(keep):
                warnings.warn(
                    f"dropping {int(np.count_nonzero(~keep))} zero element(s)",
                    ZeroElementWarning,
                    stacklevel=2,
                )
                mats = mats[keep]
                position = position[keep]
                if labels is not None:
                    labels = [lab for lab, k in zip(labels, keep) if k]
        if mats.shape[0] == 0:
            raise ValueError("POVM needs at least one nonzero element")

        if validate:
            deviations, lowest, broken = _element_rules(mats, tol)
            offending = np.flatnonzero(broken)
            if offending.size:
                k = int(offending[0])
                i = int(position[k])
                if broken[k] == _NOT_SELF_ADJOINT:
                    raise ValueError(
                        f"element {i} is not self-adjoint (deviation {deviations[k]:.3e})"
                    )
                raise NotPositiveError(i, float(lowest[k]))
            residual = float(np.linalg.norm(mats.sum(axis=0) - np.eye(mats.shape[1])))
            if residual > tol.lin_solve:
                raise NotCompleteError(residual)

        mats.setflags(write=False)
        self.elements = mats
        self.labels = labels
        self.tol = tol
        # Ensemble -> (optimal dual coordinates, outcome probabilities), filled
        # by ``processing``; an entry lives no longer than its ensemble
        self.by_ensemble = weakref.WeakKeyDictionary()

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return self.elements.shape[0]

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    @cached_property
    def design_matrix(self) -> np.ndarray:
        """Real d^2 x N matrix: HS coordinates of the elements' Hermitian parts (read-only)."""
        V = coords(self.elements).real.T
        V.setflags(write=False)
        return V

    @cached_property
    def svd(self):
        """Truncated SVD ``(U, s, Vh)`` of the design matrix, cut at ``self.tol`` (read-only).

        ``U`` is the orthonormal basis of the span that every span test of
        the package measures against with :func:`hs.off_span`.
        """
        factors = truncated_svd(self.design_matrix, self.tol)
        for a in factors:
            a.setflags(write=False)
        return factors

    @cached_property
    def null_basis(self) -> np.ndarray:
        """Orthonormal basis ``K`` (N x k, ``k = N - span_rank``) of V's null space (read-only).

        The complement of the rows of :attr:`svd`'s ``Vh`` by a complete QR
        factorization, which forms an N x N factor; only the post-processing
        search needs it.
        """
        Vh = self.svd[2]
        K = np.linalg.qr(Vh.T, mode="complete")[0][:, len(Vh):]
        K.setflags(write=False)
        return K

    @cached_property
    def span_projector(self) -> np.ndarray:
        """Orthogonal projector onto the HS span of the elements, in HS coordinates."""
        U = self.svd[0]
        return U @ U.T

    @cached_property
    def span_rank(self) -> int:
        return len(self.svd[1])

    def probabilities(self, rho) -> np.ndarray:
        """Outcome probabilities ``Tr[rho P_i]`` under the state ``rho``."""
        rho = as_operator(rho)
        if rho.shape != (self.dim, self.dim):
            raise ValueError("state dimension mismatch")
        return np.real(np.einsum("ab,iba->i", rho, self.elements))


# codes of the element rules, in the order they are checked
_NOT_SELF_ADJOINT, _NOT_POSITIVE = 1, 2


def _element_rules(mats: np.ndarray, tol: Tolerances):
    """The element rules of a POVM, checked on a stacked ``(N, d, d)`` array.

    An element must be self-adjoint, ``||m - m^dag|| <= tol.lin_solve``,
    and then positive, least eigenvalue of ``(m + m^dag)/2`` at least
    ``-tol.psd_slack``.  Returns the deviations, the least eigenvalues and,
    per element, the code of the first rule it breaks (0 when it keeps both).
    """
    adjoints = np.conj(np.transpose(mats, (0, 2, 1)))
    deviations = np.linalg.norm(mats - adjoints, axis=(1, 2))
    lowest = np.linalg.eigvalsh(0.5 * (mats + adjoints))[:, 0]
    broken = np.where(deviations > tol.lin_solve, _NOT_SELF_ADJOINT,
                      np.where(lowest < -tol.psd_slack, _NOT_POSITIVE, 0))
    return deviations, lowest, broken


def povm_report(elements, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Non-raising validity report used by the command-line front end.

    Lists every offending element in index order, each under the first
    rule of :func:`_element_rules` it breaks; zero elements are listed as
    dropped and do not invalidate the POVM.  The dimension is the size
    most elements share, the earliest one on a tie; the others are listed
    as a dimension mismatch.
    """
    mats = [as_operator(e) for e in elements]
    # most_common keeps first-seen order among equal counts
    d = Counter(m.shape[0] for m in mats).most_common(1)[0][0]
    issues = {i: {"index": i, "problem": "dimension mismatch"}
              for i, m in enumerate(mats) if m.shape != (d, d)}
    same = np.array([i for i in range(len(mats)) if i not in issues])
    stack = np.stack([mats[i] for i in same])
    zero = np.linalg.norm(stack, axis=(1, 2)) <= tol.psd_slack
    deviations, lowest, broken = _element_rules(stack, tol)
    broken[zero] = 0  # dropped, not checked
    for k in np.flatnonzero(zero | (broken > 0)):
        i = int(same[k])
        if zero[k]:
            issues[i] = {"index": i, "problem": "zero element (dropped)"}
        elif broken[k] == _NOT_SELF_ADJOINT:
            issues[i] = {"index": i, "problem": "not self-adjoint",
                         "deviation": float(deviations[k])}
        else:
            issues[i] = {"index": i, "problem": "not positive",
                         "min_eigenvalue": float(lowest[k])}
    residual = float(np.linalg.norm(stack[~zero & (broken == 0)].sum(axis=0) - np.eye(d)))
    return {"dim": d, "n_elements": len(mats),
            "issues": [issues[i] for i in sorted(issues)],
            "completeness_residual": residual,
            "valid": residual <= tol.lin_solve and not broken.any() and len(same) == len(mats)}


class DualFrame:
    """Operators ``D_i`` with ``sum_i |D_i><P_i|`` equal to the span projector.

    Held as ``coords``, the d^2 x N matrix of their HS coordinates laid out
    like the POVM's design matrix; ``elements`` rebuilds the operators.  The
    POVM reference lets processing functions check span membership.
    """

    def __init__(self, coords, povm: Povm):
        W = np.array(coords)
        if W.shape != povm.design_matrix.shape:
            raise ValueError("dual frame must match the POVM outcome-for-outcome")
        if not np.all(np.isfinite(W)):
            raise ValueError("dual frame entries must be finite")
        W.setflags(write=False)
        self.coords = W
        self.povm = povm

    @cached_property
    def elements(self) -> np.ndarray:
        """The dual operators as a stacked ``(N, d, d)`` array (read-only)."""
        mats = from_coords(self.coords.T)
        mats.setflags(write=False)
        return mats

    def resolution_residual(self) -> float:
        """Norm of ``sum_i |D_i><P_i| - Pi_span``; zero for an exact dual."""
        resolution = self.coords @ self.povm.design_matrix.T
        return float(np.linalg.norm(resolution - self.povm.span_projector))


def canonical_dual(P: Povm) -> DualFrame:
    """Canonical dual frame ``Delta_i = F^+ |P_i>``, with ``F = V V^dag`` the frame operator.

    Computed as the columns of ``(V^+)^dag = U diag(1/s) Vh`` from the
    truncated SVD of the design matrix ``V``, which cuts V's singular values
    at ``P.tol.eig_zero`` like the span projector does; forming ``F`` would
    square the condition number and drop directions the span keeps.
    """
    U, s, Vh = P.svd
    return DualFrame((U / s) @ Vh, P)


def alternate_dual(P: Povm, canonical: DualFrame, Y) -> DualFrame:
    """Shifted dual ``z_i = Delta_i + y_i - sum_j <P_j|Delta_i> y_j``.

    Any operator list ``Y`` (one entry per outcome) produces another valid
    dual frame; when the POVM elements are linearly independent the shift
    cancels and the canonical dual is returned unchanged.
    """
    Ymats = np.stack([as_operator(y) for y in Y])
    if Ymats.shape != P.elements.shape:
        raise ValueError("need one Y operator per POVM element")
    Yc = coords(Ymats).T
    M = dagger(canonical.coords) @ P.design_matrix  # <Delta_i|P_j>
    return DualFrame(canonical.coords + Yc - Yc @ M.T, P)


def symmetrize_dual(D: DualFrame) -> DualFrame:
    """Element-wise Hermitian part, the real part of the coordinates; again a valid dual."""
    return DualFrame(D.coords.real, D.povm)


def is_r_infocomplete(P: Povm, operators) -> bool:
    """Does ``Span(operators)`` sit inside the span of the POVM elements?

    When true, every expectation ``Tr[rho R]`` with R in the given span is
    recoverable from the statistics of P.  Measured as the norm of the part
    of an orthonormal basis of ``Span(operators)`` off the span of P, which
    equals ``||Q Pi_P - Q||`` for ``Q`` the projector onto ``Span(operators)``.
    """
    U_R = span_basis(operators, P.tol)
    return float(np.linalg.norm(off_span(P.svd[0], U_R))) <= P.tol.lin_solve


def is_infocomplete(P: Povm) -> bool:
    """Full informational completeness: the elements span all of HS space."""
    return P.span_rank == P.dim ** 2


class Observable:
    """Self-adjoint operator with a clustered spectral decomposition.

    Eigenvalues closer than ``tol.cluster`` are merged into a single
    degenerate eigenvalue (their mean) whose projector is the sum of the
    corresponding eigenprojectors.
    """

    def __init__(self, operator, tol: Tolerances = DEFAULT_TOL):
        X = as_operator(operator)
        deviation = float(np.linalg.norm(X - dagger(X)))
        if deviation > tol.lin_solve:
            raise ValueError(f"observable is not self-adjoint (deviation {deviation:.3e})")
        lam, vec = np.linalg.eigh(0.5 * (X + dagger(X)))
        eigenvalues = []
        projectors = []
        start = 0
        for stop in range(1, len(lam) + 1):
            if stop == len(lam) or lam[stop] - lam[stop - 1] > tol.cluster:
                block = vec[:, start:stop]
                eigenvalues.append(float(np.mean(lam[start:stop])))
                projectors.append(block @ dagger(block))
                start = stop
        X.setflags(write=False)
        self.operator = X
        self.eigenvalues = np.array(eigenvalues)
        self.projectors = np.stack(projectors)
        self.projectors.setflags(write=False)
        self.tol = tol

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    @property
    def spectrum_size(self) -> int:
        """Number of distinct (clustered) eigenvalues, often called s."""
        return len(self.eigenvalues)


def spectral_povm(X: Observable) -> Povm:
    """The projective POVM made of the observable's spectral projectors."""
    return Povm(
        X.projectors,
        labels=[float(x) for x in X.eigenvalues],
        tol=X.tol,
    )
