"""Classical post-processing of POVMs: Markov maps, cleanness, blurring.

A POVM ``Q`` is a post-processing of ``P`` when ``Q_j = sum_i m(j|i) P_i``
for a column-stochastic matrix ``m`` (columns indexed by the input
outcome i).  This module decides that relation by linear programming,
implements the elementary merge/permute/split maps, tests cleanness
(maximality under the induced pseudo-order), and builds the smearing and
blurring constructions that turn sign-indefinite processing coefficients
into genuine conditional probabilities at a quantifiable noise cost.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hs import DEFAULT_TOL, Tolerances, dagger, vectorize
from .povm import Observable, Povm, spectral_povm
from .processing import Ensemble, OutsideSpanError, optimal_dual

#: Largest admissible synthesis residual (entrywise) for declaring that a
#: candidate Markov matrix realizes the target POVM.
FEASIBILITY_RESIDUAL = 1e-8

# 1e-10 is the tightest feasibility tolerance the HiGHS backend accepts
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def linprog(cost, **constraints):
    """Minimize ``cost @ x`` over ``x >= 0`` with HiGHS at :data:`_LP_OPTIONS`.

    scipy is imported here, on the first call, so that only callers that
    solve an LP pay for loading it.
    """
    from scipy.optimize import linprog as highs

    return highs(cost, **constraints, bounds=(0.0, None), method="highs", options=_LP_OPTIONS)


class MarkovMatrix:
    """Column-stochastic conditional-probability matrix ``m[j, i] = m(j|i)``."""

    def __init__(self, m, tol: Tolerances = DEFAULT_TOL, *, validate: bool = True):
        mat = np.asarray(m, dtype=float)
        if mat.ndim != 2:
            raise ValueError("Markov matrix must be two-dimensional")
        if validate:
            if np.any(mat < -tol.psd_slack):
                j, i = np.unravel_index(np.argmin(mat), mat.shape)
                raise ValueError(f"negative conditional probability m({j}|{i}) = {mat[j, i]!r}")
            col_sums = mat.sum(axis=0)
            if np.any(np.abs(col_sums - 1.0) > tol.lin_solve):
                i = int(np.argmax(np.abs(col_sums - 1.0)))
                raise ValueError(f"column {i} sums to {col_sums[i]!r}, expected 1")
        mat = np.clip(mat, 0.0, None)
        mat.setflags(write=False)
        self.m = mat
        self.tol = tol

    @property
    def rows(self) -> int:
        return self.m.shape[0]

    @property
    def cols(self) -> int:
        return self.m.shape[1]

    def compose(self, inner: "MarkovMatrix") -> "MarkovMatrix":
        """The map 'apply ``inner`` first, then self'; columns stay stochastic."""
        if self.cols != inner.rows:
            raise ValueError("inner map's outputs must match this map's inputs")
        return MarkovMatrix(self.m @ inner.m, tol=self.tol)


def apply_post_processing(P: Povm, m: MarkovMatrix) -> Povm:
    """The coarse-grained POVM ``Q_j = sum_i m(j|i) P_i``."""
    if m.cols != len(P):
        raise ValueError(f"Markov matrix expects {m.cols} inputs, POVM has {len(P)}")
    elements = np.tensordot(m.m, P.elements, axes=(1, 0))
    return Povm(elements, tol=P.tol)


def t1_identify(P: Povm, j: int, k: int) -> Povm:
    """Merge outcomes ``j`` and ``k`` (the sum replaces position ``j``)."""
    n = len(P)
    if not (0 <= j < n and 0 <= k < n) or j == k:
        raise ValueError("need two distinct valid outcome indices")
    keep = [i for i in range(n) if i != k]
    m = np.zeros((n - 1, n))
    for row, src in enumerate(keep):
        m[row, src] = 1.0
    m[keep.index(j), k] = 1.0
    return apply_post_processing(P, MarkovMatrix(m, tol=P.tol))


def t2_permute(P: Povm, perm) -> Povm:
    """Relabel outcomes: element ``i`` of the result is ``P[perm[i]]``."""
    perm = list(perm)
    n = len(P)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}")
    m = np.zeros((n, n))
    for i, src in enumerate(perm):
        m[i, src] = 1.0
    return apply_post_processing(P, MarkovMatrix(m, tol=P.tol))


def t3_split(P: Povm, l: int, p: float) -> Povm:
    """Randomly split outcome ``l`` into adjacent pieces ``p P_l`` and ``(1-p) P_l``."""
    n = len(P)
    if not 0 <= l < n:
        raise ValueError(f"outcome index {l} out of range")
    if not 0.0 < p < 1.0:
        raise ValueError(f"split weight must lie strictly between 0 and 1, got {p!r}")
    m = np.zeros((n + 1, n))
    row = 0
    for i in range(n):
        if i == l:
            m[row, i] = p
            m[row + 1, i] = 1.0 - p
            row += 2
        else:
            m[row, i] = 1.0
            row += 1
    return apply_post_processing(P, MarkovMatrix(m, tol=P.tol))


@dataclass(frozen=True)
class PostProcessingSearch:
    """Outcome of the post-processing feasibility LP."""

    feasible: bool
    markov: MarkovMatrix | None
    residual: float


def find_post_processing(Q: Povm, P: Povm) -> PostProcessingSearch:
    """Search for a Markov matrix ``m`` with ``Q_j = sum_i m(j|i) P_i``.

    The linear program minimizes the largest entrywise synthesis residual
    over all column-stochastic matrices; the relation holds exactly iff
    the optimum is zero, so the reported minimum doubles as an
    infeasibility certificate when it exceeds :data:`FEASIBILITY_RESIDUAL`.
    """
    if Q.dim != P.dim:
        raise ValueError("POVMs must act on the same space")
    n_in, n_out, d = len(P), len(Q), P.dim
    # real design matrix: columns are [Re vec(P_i); Im vec(P_i)]
    A = np.vstack([np.real(P.design_matrix), np.imag(P.design_matrix)])
    b = np.vstack([np.real(Q.design_matrix), np.imag(Q.design_matrix)])
    n_rows = A.shape[0]
    n_var = n_out * n_in + 1  # m entries plus the residual bound s

    def mvar(j, i):
        return j * n_in + i

    A_ub = np.zeros((2 * n_rows * n_out, n_var))
    b_ub = np.zeros(2 * n_rows * n_out)
    for j in range(n_out):
        lo = 2 * n_rows * j
        #  A m_j - b_j <= s   and   -(A m_j - b_j) <= s
        A_ub[lo:lo + n_rows, mvar(j, 0):mvar(j, n_in)] = A
        A_ub[lo:lo + n_rows, -1] = -1.0
        b_ub[lo:lo + n_rows] = b[:, j]
        A_ub[lo + n_rows:lo + 2 * n_rows, mvar(j, 0):mvar(j, n_in)] = -A
        A_ub[lo + n_rows:lo + 2 * n_rows, -1] = -1.0
        b_ub[lo + n_rows:lo + 2 * n_rows] = -b[:, j]

    A_eq = np.zeros((n_in, n_var))
    for i in range(n_in):
        for j in range(n_out):
            A_eq[i, mvar(j, i)] = 1.0
    b_eq = np.ones(n_in)

    cost = np.zeros(n_var)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    if not res.success:  # pragma: no cover - the LP is always feasible
        raise RuntimeError(f"post-processing LP failed: {res.message}")
    m = res.x[:-1].reshape(n_out, n_in)
    m = np.clip(m, 0.0, None)
    m /= m.sum(axis=0, keepdims=True)
    residual = float(np.max(np.abs(A @ m.T - b))) if n_rows else 0.0
    if residual <= FEASIBILITY_RESIDUAL:
        return PostProcessingSearch(True, MarkovMatrix(m, tol=P.tol), residual)
    return PostProcessingSearch(False, None, residual)


def is_post_processing_of(Q: Povm, P: Povm) -> bool:
    """True when ``Q`` can be simulated classically from the statistics of ``P``."""
    return find_post_processing(Q, P).feasible


def is_clean(P: Povm) -> bool:
    """All elements rank one: no measurement strictly refines P.

    Rank-one POVMs are exactly the maximal ones under the post-processing
    pseudo-order, so this cheap spectral test characterizes cleanness.
    """
    tol = P.tol
    for m in P.elements:
        lam = np.linalg.eigvalsh(0.5 * (m + dagger(m)))
        cutoff = max(tol.eig_zero * lam[-1], tol.psd_slack)
        if int(np.count_nonzero(lam > cutoff)) > 1:
            return False
    return True


def smear_out(Q: Povm, c: np.ndarray) -> tuple[Povm, MarkovMatrix]:
    """Shift-and-rescale a processing array into a genuine post-processing.

    ``c[i, j]`` are coefficients with ``sum_i c[i, j] P_i = Q_j`` and rows
    summing to one.  With ``a_j = max_i max(0, -c[i, j])`` and
    ``t = 1 + sum_j a_j`` the smeared POVM ``(Q_j + a_j 1)/t`` is a genuine
    post-processing of P with Markov entries ``(c[i, j] + a_j)/t``.
    Both are built at ``Q.tol``.
    """
    tol = Q.tol
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[1] != len(Q):
        raise ValueError("coefficient array must have one column per target outcome")
    row_sums = c.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > tol.lin_solve):
        i = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ValueError(f"row {i} of the coefficient array sums to {row_sums[i]!r}, expected 1")
    alpha = np.max(np.clip(-c, 0.0, None), axis=0)
    total = 1.0 + alpha.sum()
    eye = np.eye(Q.dim)
    smeared = Povm(
        [(q + a * eye) / total for q, a in zip(Q.elements, alpha)],
        tol=tol,
    )
    markov = MarkovMatrix(((c + alpha[np.newaxis, :]) / total).T, tol=tol)
    return smeared, markov


@dataclass(frozen=True)
class BlurResult:
    """Uniform blurring that makes a target measurement classically reachable."""

    epsilon_star: float
    blurred: Povm
    markov: MarkovMatrix
    inflation: float
    coefficients: np.ndarray
    #: numeric value attached to each target outcome (None when the target
    #: POVM carries no numeric labels); keeps unbiasing aligned outcome-wise
    outcome_values: np.ndarray | None


def minimal_blur(c_min: float, n_outcomes: int) -> float:
    """Smallest uniform-noise weight clearing negative coefficients.

    For the most negative optimal-processing coefficient ``c_min`` (clamped
    at zero) of an ``n_outcomes``-target, ``eps* = -M c~ / (1 - M c~)``
    with ``c~ = min(0, c_min)`` and ``M = n_outcomes``.
    """
    c_bar = min(0.0, float(c_min))
    return -n_outcomes * c_bar / (1.0 - n_outcomes * c_bar)


def blur_for_post_processing(P: Povm, Q: Povm, ensemble: Ensemble) -> BlurResult:
    """Blur ``Q`` just enough that it becomes a post-processing of ``P``.

    The optimal dual of P under the ensemble provides coefficients
    ``c[i, j] = Tr[D_i Q_j]`` whose rows sum to one.  Mixing every target
    element with uniform noise, ``Q_j(eps) = (1-eps) Q_j + eps/M``, makes
    all coefficients nonnegative at ``eps* = minimal_blur(...)``; the
    resulting conditional probabilities realize the blurred target
    exactly, at the price of inflating statistical errors by
    ``1/(1-eps*)^2`` after unbiasing.  The blurred POVM and its Markov
    matrix are built at ``P.tol``.
    """
    tol = P.tol
    if P.dim != Q.dim:
        raise ValueError("POVMs must act on the same space")
    Pi = P.span_projector
    for j, q in enumerate(Q.elements):
        v = vectorize(q)
        residual = float(np.linalg.norm(v - Pi @ v))
        if residual > tol.lin_solve:
            raise OutsideSpanError(residual, f"target element {j}")
    D = optimal_dual(P, ensemble)
    c = np.real(
        np.einsum("iab,jba->ij", np.conj(np.transpose(D.elements, (0, 2, 1))), Q.elements)
    )
    M = len(Q)
    eps = minimal_blur(float(c.min()), M)
    markov_entries = (1.0 - eps) * c.T + eps / M  # rows: target outcome j
    blurred = Povm(
        [(1.0 - eps) * q + (eps / M) * np.eye(Q.dim) for q in Q.elements],
        tol=tol,
    )
    outcome_values = None
    if Q.labels is not None:
        try:
            outcome_values = np.array([float(lab) for lab in Q.labels])
        except (TypeError, ValueError):
            outcome_values = None
    return BlurResult(
        epsilon_star=float(eps),
        blurred=blurred,
        markov=MarkovMatrix(markov_entries, tol=tol),
        inflation=1.0 / (1.0 - eps) ** 2,
        coefficients=c,
        outcome_values=outcome_values,
    )


def unbias(blur: BlurResult, observed, observable: Observable | None = None):
    """Undo the blur on observed statistics.

    Given outcome frequencies (or exact probabilities) of the blurred
    measurement, returns the corresponding statistics of the unblurred
    target, ``(observed - eps*/M) / (1 - eps*)``.  When ``observable`` is
    supplied, returns instead the unbiased expectation-value estimate
    built from the observable's clustered eigenvalues.

    Recovered probabilities are clamped to [0, 1] with a warning; finite
    samples can produce out-of-range values even for a faithful model.
    """
    eps = blur.epsilon_star
    if not eps < 1.0:
        raise ValueError(f"blur weight {eps!r} leaves nothing to unbias; it must be below 1")
    observed = np.asarray(observed, dtype=float)
    M = blur.markov.rows
    if observed.shape != (M,):
        raise ValueError(f"expected {M} observed frequencies, got shape {observed.shape}")
    if observable is not None:
        if observable.spectrum_size != M:
            raise ValueError("observable spectrum size does not match the blurred target")
        # outcome order of the blur target need not match the observable's
        # eigenvalue order, so use the per-outcome values recorded when the
        # blur was built (spectral POVMs label outcomes by eigenvalue)
        x = blur.outcome_values
        if x is None or not np.allclose(
            np.sort(x), np.sort(observable.eigenvalues), atol=1e-9
        ):
            raise ValueError(
                "blur target does not carry this observable's eigenvalues as labels; "
                "build the blur from its spectral POVM"
            )
        raw = float(np.dot(x, observed))
        # the uniform-noise part contributes eps/M times the sum of the
        # outcome labels, one per distinct eigenvalue
        return (raw - (eps / M) * float(x.sum())) / (1.0 - eps)
    recovered = (observed - eps / M) / (1.0 - eps)
    if np.any(recovered < 0.0) or np.any(recovered > 1.0):
        warnings.warn(
            "unbiased probabilities fall outside [0, 1]; clamping "
            "(expected for finite samples near the simplex boundary)",
            UserWarning,
            stacklevel=2,
        )
        recovered = np.clip(recovered, 0.0, 1.0)
    return recovered


def convex_union(P: Povm, Q: Povm, lam: float) -> Povm:
    """Random choice between measurements: elements ``lam P_i`` then ``(1-lam) Q_j``."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam!r}")
    if P.dim != Q.dim:
        raise ValueError("POVMs must act on the same space")
    elements = [lam * m for m in P.elements] + [(1.0 - lam) * m for m in Q.elements]
    return Povm(elements, tol=P.tol)


def is_imperfect_measurement_of(P: Povm, X: Observable) -> bool:
    """Is every outcome of P a classically noisy readout of the observable X?

    Equivalent formulations: P is a post-processing of the spectral POVM
    of X, or every element of P is a function of X (commutes with X and
    lies in the span of its spectral projectors).
    """
    return find_post_processing(P, spectral_povm(X)).feasible


@dataclass(frozen=True)
class JointCertificate:
    """Markov map sending P's statistics to a measurement of one observable."""

    markov: MarkovMatrix
    povm: Povm
    trivial: bool
    alignment: float


@dataclass(frozen=True)
class JointMeasurementResult:
    feasible: bool
    certificates: list
    failed_index: int | None
    convex_union_shaped: bool


def _function_of_constraints(X: Observable, P: Povm):
    """Rows enforcing that a combination of P's elements is a function of X."""
    d = P.dim
    Pi = np.zeros((d * d, d * d), dtype=complex)
    for proj in X.projectors:
        v = vectorize(proj)
        # spectral projectors are orthogonal, so normalizing each gives an
        # orthonormal basis of the function-of-X subspace
        Pi += np.outer(v, np.conj(v)) / float(np.real(np.vdot(v, v)))
    W = (np.eye(d * d) - Pi) @ P.design_matrix
    return np.vstack([np.real(W), np.imag(W)])


def looks_like_convex_union(P: Povm, observables) -> bool:
    """Every element of P proportional to a spectral projector of some observable.

    Such POVMs arise from randomly choosing which observable to measure,
    and their joint-measurement certificates are automatic.
    """
    tol = P.tol
    for m in P.elements:
        matched = False
        t = float(np.real(np.trace(m)))
        if t <= tol.psd_slack:
            continue
        for X in observables:
            for proj in X.projectors:
                tp = float(np.real(np.trace(proj)))
                if np.linalg.norm(m / t - proj / tp) <= tol.lin_solve:
                    matched = True
                    break
            if matched:
                break
        if not matched:
            return False
    return True


def find_joint_measurement(P: Povm, observables) -> JointMeasurementResult:
    """Joint-measurement certificates for several observables from one POVM.

    For each observable ``X`` with spectrum size ``s`` the LP searches a
    Markov map from P's outcomes onto ``s + 1`` outcomes (one slack
    outcome for discarded weight) such that the processed POVM is a
    function of X.  A uniform guess is always admissible, so the LP
    additionally maximizes the overlap ``sum_h Tr[Q_h X_h]`` between the
    first ``s`` processed elements and the spectral projectors; constant
    columns in the returned map flag certificates that ignore the data.
    """
    tol = P.tol
    observables = list(observables)
    certificates = []
    n_in = len(P)
    for idx, X in enumerate(observables):
        if X.dim != P.dim:
            raise ValueError(f"observable {idx} dimension mismatch")
        s = X.spectrum_size
        n_out = s + 1
        rows = _function_of_constraints(X, P)
        n_con = rows.shape[0]
        n_var = n_out * n_in
        A_eq = np.zeros((n_con * n_out + n_in, n_var))
        b_eq = np.zeros(n_con * n_out + n_in)
        for j in range(n_out):
            A_eq[j * n_con:(j + 1) * n_con, j * n_in:(j + 1) * n_in] = rows
        for i in range(n_in):
            for j in range(n_out):
                A_eq[n_con * n_out + i, j * n_in + i] = 1.0
            b_eq[n_con * n_out + i] = 1.0
        cost = np.zeros(n_var)
        for h in range(s):
            overlaps = np.real(
                np.einsum("ab,iba->i", X.projectors[h], P.elements)
            )
            cost[h * n_in:(h + 1) * n_in] = -overlaps  # maximize alignment
        res = linprog(cost, A_eq=A_eq, b_eq=b_eq)
        if not res.success:
            return JointMeasurementResult(False, certificates, idx, False)
        m = np.clip(res.x.reshape(n_out, n_in), 0.0, None)
        m /= m.sum(axis=0, keepdims=True)
        markov = MarkovMatrix(m, tol=tol)
        processed = apply_post_processing(P, markov) if np.all(m.sum(axis=1) > tol.psd_slack) \
            else Povm(np.tensordot(m, P.elements, axes=(1, 0)), tol=tol, drop_zero=False, validate=False)
        spread = float(np.max(np.abs(m - m.mean(axis=1, keepdims=True))))
        certificates.append(
            JointCertificate(
                markov=markov,
                povm=processed,
                trivial=spread <= FEASIBILITY_RESIDUAL,
                alignment=float(-res.fun),
            )
        )
    return JointMeasurementResult(
        True, certificates, None, looks_like_convex_union(P, observables)
    )
