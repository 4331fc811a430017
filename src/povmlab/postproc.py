"""Classical post-processing of POVMs: Markov maps, cleanness, blurring.

A POVM ``Q`` is a post-processing of ``P`` when ``Q_j = sum_i m(j|i) P_i``
for a column-stochastic matrix ``m`` (columns indexed by the input
outcome i).  This module decides that relation by linear programming
over the null space of P's design matrix: a sign check when P's elements
are linearly independent, otherwise a small feasibility LP.  When neither
finds an ``m``, a witness LP, the dual of the minimax LP over all of
``m``, returns the least synthesis residual together with operators
``Y_j`` that certify it (a guessing-game witness in the sense of Buscemi,
CMP 310, 625 (2012)).  Joint-measurement certificates come from an
alignment LP over the same null-space parametrization, solved as its
dual.  The module also implements the elementary merge/permute/split
maps, tests cleanness (maximality under the induced pseudo-order), and
builds the smearing and blurring constructions that turn sign-indefinite
processing coefficients into genuine conditional probabilities at a
quantifiable noise cost.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hs import DEFAULT_TOL, Tolerances, coords, from_coords, off_span, svd_and_null_basis
from .povm import Observable, Povm, spectral_povm
from .processing import Ensemble, OutsideSpanError, _span_residual, optimal_dual

#: Largest admissible synthesis residual (entrywise) for declaring that a
#: candidate Markov matrix realizes the target POVM.
FEASIBILITY_RESIDUAL = 1e-8

# 1e-10 is the tightest feasibility tolerance the HiGHS backend accepts
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def linprog(cost, bounds=(0.0, None), **constraints):
    """Minimize ``cost @ x`` within ``bounds`` (default ``x >= 0``) by HiGHS.

    HiGHS runs at :data:`_LP_OPTIONS`.  scipy is imported here, on the first
    call, so that only callers that solve an LP pay for loading it.
    """
    from scipy.optimize import linprog as highs

    return highs(cost, **constraints, bounds=bounds, method="highs", options=_LP_OPTIONS)


def _sign_bounds(n_nonneg: int, n_free: int) -> np.ndarray:
    """:func:`linprog` bounds: ``n_nonneg`` nonnegative variables, then ``n_free`` free ones."""
    return np.repeat([[0.0, np.inf], [-np.inf, np.inf]], [n_nonneg, n_free], axis=0)


def _stochastic(m: np.ndarray) -> np.ndarray:
    """``m`` clipped at zero, with its columns renormalized to sum to one."""
    m = np.clip(m, 0.0, None)
    return m / m.sum(axis=0, keepdims=True)


def _reduced_lp(m0: np.ndarray, K: np.ndarray, cost=None):
    """A column-stochastic ``m = m0 + z K^T`` found by HiGHS, or None when there is none.

    ``m0[j]`` is a particular solution for output j of some linear
    constraints on ``m[j]``, ``K`` an orthonormal basis (columns) of their
    null space, and ``z[j]`` the free coordinates along it, variables
    ``j * k`` to ``j * k + k - 1`` for ``k = K.shape[1]``.  The constraints
    on ``z`` are ``A z <= b``, that is ``m0[j] + K z[j] >= 0``, and
    ``A_eq z = b_eq``, that is ``sum_j z[j] = K^T (1 - sum_j m0[j])``, which
    makes the columns of ``m`` sum to one.

    Without a ``cost`` HiGHS solves this feasibility LP as it stands.  With
    a ``cost`` of ``m``'s shape, ``m`` minimizes ``cost . m``, and HiGHS
    solves the dual LP instead: ``min b . y + b_eq . w`` subject to
    ``A^T y + A_eq^T w = -(cost @ K)``, ``y >= 0`` and ``w`` free.  Its
    equality marginals are the optimal ``z``, and it is unbounded exactly
    when no ``m`` exists.  (With zero cost that dual is a Farkas system,
    which HiGHS solves more slowly than the primal.)  With ``K`` empty,
    ``m0`` is the only candidate and no LP runs.  The solution is returned
    clipped at zero with its columns renormalized.
    """
    n_out, k = m0.shape[0], K.shape[1]
    if k:
        A, b = np.kron(np.eye(n_out), -K), m0.ravel()
        A_eq, b_eq = np.kron(np.ones((1, n_out)), np.eye(k)), K.T @ (1.0 - m0.sum(axis=0))
        if cost is None:
            res = linprog(np.zeros(n_out * k), A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq,
                          bounds=(None, None))
        else:
            res = linprog(np.concatenate([b, b_eq]), A_eq=np.hstack([A.T, A_eq.T]),
                          b_eq=-(cost @ K).ravel(), bounds=_sign_bounds(len(b), k))
        if not res.success:
            return None
        z = res.x if cost is None else res.eqlin.marginals
        m0 = m0 + z.reshape(n_out, k) @ K.T
    return _stochastic(m0)


def _witness_lp(V: np.ndarray, W: np.ndarray):
    """The column-stochastic ``m`` least off ``V m^T = W`` entrywise, and a witness ``y``.

    HiGHS solves the dual of that minimax LP: maximize
    ``sum_j y_j . w_j - sum_i t_i`` subject to ``y_j . v_i <= t_i`` (row
    ``j * n_in + i``) and ``sum_j |y_j|_1 <= 1`` (the last row), with
    ``y = y+ - y-`` split into nonnegative parts.  The variables are
    ``y+`` (``n_out * n_dim``, output-major), then ``y-``, then the free
    ``t``.  Its optimum is the least largest miss ``|V m^T - W|``, and the
    optimal ``m[j, i]`` are minus the marginals of the ``y_j . v_i <= t_i``
    rows, returned as :func:`_stochastic` of them, with the ``(n_out,
    n_dim)`` array of the ``y_j``.
    """
    from scipy import sparse

    n_dim, n_in = V.shape
    n_out = W.shape[1]
    n_y, rows = n_out * n_dim, n_out * n_in
    # row j * n_in + i holds v_i at y+_j, -v_i at y-_j and -1 at t_i; the
    # block grows with n_out * V.size, so the matrix is built sparse, by rows
    y_cols = np.arange(n_y).reshape(n_out, 1, n_dim).repeat(n_in, axis=1).reshape(rows, n_dim)
    t_cols = 2 * n_y + np.tile(np.arange(n_in), n_out)[:, None]
    v = np.tile(V.T, (n_out, 1))
    data = np.hstack([v, -v, -np.ones((rows, 1))])
    indices = np.hstack([y_cols, n_y + y_cols, t_cols])
    A = sparse.csr_array(
        (np.append(data, np.ones(2 * n_y)), np.append(indices, np.arange(2 * n_y)),
         np.append(np.arange(rows + 1) * data.shape[1], data.size + 2 * n_y)),
        shape=(rows + 1, 2 * n_y + n_in),
    )
    w = W.T.ravel()
    res = linprog(np.concatenate([-w, w, np.ones(n_in)]), A_ub=A,
                  b_ub=np.append(np.zeros(rows), 1.0), bounds=_sign_bounds(2 * n_y, n_in))
    if not res.success:  # pragma: no cover - the LP is always feasible and bounded
        raise RuntimeError(f"post-processing witness LP failed: {res.message}")
    m = -res.ineqlin.marginals[:-1].reshape(n_out, n_in)
    return _stochastic(m), (res.x[:n_y] - res.x[n_y:2 * n_y]).reshape(n_out, n_dim)


class MarkovMatrix:
    """Column-stochastic conditional-probability matrix ``m[j, i] = m(j|i)``."""

    def __init__(self, m, tol: Tolerances = DEFAULT_TOL, *, validate: bool = True):
        mat = np.asarray(m, dtype=float)
        if mat.ndim != 2:
            raise ValueError("Markov matrix must be two-dimensional")
        if not np.all(np.isfinite(mat)):
            raise ValueError("Markov matrix entries must be finite")
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
    m = np.eye(n)[np.arange(n) != k]
    m[j - (j > k), k] = 1.0
    return apply_post_processing(P, MarkovMatrix(m, tol=P.tol))


def t2_permute(P: Povm, perm) -> Povm:
    """Relabel outcomes: element ``i`` of the result is ``P[perm[i]]``."""
    perm = list(perm)
    n = len(P)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}")
    m = np.eye(n)[perm]
    return apply_post_processing(P, MarkovMatrix(m, tol=P.tol))


def t3_split(P: Povm, l: int, p: float) -> Povm:
    """Randomly split outcome ``l`` into adjacent pieces ``p P_l`` and ``(1-p) P_l``."""
    n = len(P)
    if not 0 <= l < n:
        raise ValueError(f"outcome index {l} out of range")
    if not 0.0 < p < 1.0:
        raise ValueError(f"split weight must lie strictly between 0 and 1, got {p!r}")
    m = np.eye(n)[np.insert(np.arange(n), l, l)]  # row l repeated
    m[l, l], m[l + 1, l] = p, 1.0 - p
    return apply_post_processing(P, MarkovMatrix(m, tol=P.tol))


@dataclass(frozen=True)
class PostProcessingSearch:
    """Outcome of the post-processing LPs.

    ``witness`` holds the operators ``Y_j`` (an ``(M, d, d)`` array, one per
    target outcome) that certify an infeasible verdict; it is None when
    the target is feasible.
    """

    feasible: bool
    markov: MarkovMatrix | None
    residual: float
    witness: np.ndarray | None


def find_post_processing(Q: Povm, P: Povm) -> PostProcessingSearch:
    """Search for a Markov matrix ``m`` with ``Q_j = sum_i m(j|i) P_i``.

    Every solution of the synthesis equations ``V m_j = w_j`` (V and W the
    design matrices of P and Q) is ``m_j = m0_j + K z_j``, with
    ``m0 = V^+ W`` and K the orthonormal basis of the null space of V
    (:attr:`Povm.null_basis`), both from P's one cached SVD.  When K is
    empty (P's elements are linearly independent), ``m0`` is the only
    candidate and no LP runs; otherwise a small feasibility LP in the
    ``z_j`` imposes ``m >= 0`` and unit column sums.  A candidate whose
    largest synthesis residual, recomputed from the returned ``m``, is at
    most :data:`FEASIBILITY_RESIDUAL` is returned as feasible with that
    residual.

    Otherwise the witness LP runs (:func:`_witness_lp`); it stays behind
    the sign check and the feasibility LP because on feasible targets it
    is much slower than they are.  It looks for
    self-adjoint ``Y_j``, with HS coordinates ``y_j`` and
    ``sum_j |y_j|_1 <= 1``, that maximize
    ``sum_j Tr[Y_j Q_j] - sum_i max_j Tr[Y_j P_i]``.  By LP duality the
    maximum is the least largest synthesis residual, in the HS coordinates
    of the design matrices, over all column-stochastic matrices, and the
    LP's marginals give an ``m`` that attains it; ``residual`` is
    recomputed from that ``m``.  Q is a post-processing of P exactly when
    the maximum is zero.  When the residual exceeds
    :data:`FEASIBILITY_RESIDUAL` the ``Y_j`` are returned as ``witness``:
    anyone can check, without an LP, that their value above equals the
    residual, and any post-processing ``m`` of P would make it at most 0.
    """
    if Q.dim != P.dim:
        raise ValueError("POVMs must act on the same space")
    V, W = P.design_matrix, Q.design_matrix
    U, s, Vh = P.svd
    m0 = ((W.T @ U) / s) @ Vh  # row j is V^+ w_j
    m = _reduced_lp(m0, P.null_basis)
    y = None
    if m is None or np.max(np.abs(V @ m.T - W)) > FEASIBILITY_RESIDUAL:
        m, y = _witness_lp(V, W)
    residual = float(np.max(np.abs(V @ m.T - W)))
    if residual <= FEASIBILITY_RESIDUAL:
        return PostProcessingSearch(True, MarkovMatrix(m, tol=P.tol), residual, None)
    return PostProcessingSearch(False, None, residual, from_coords(y))


def is_post_processing_of(Q: Povm, P: Povm) -> bool:
    """True when ``Q`` can be simulated classically from the statistics of ``P``."""
    return find_post_processing(Q, P).feasible


def is_clean(P: Povm) -> bool:
    """All elements rank one: no measurement strictly refines P.

    Rank-one POVMs are exactly the maximal ones under the post-processing
    pseudo-order, so this cheap spectral test characterizes cleanness.
    """
    tol = P.tol
    lam = np.linalg.eigvalsh(0.5 * (P.elements + np.conj(np.transpose(P.elements, (0, 2, 1)))))
    cutoff = np.maximum(tol.eig_zero * lam[:, -1:], tol.psd_slack)
    return bool(np.all(np.count_nonzero(lam > cutoff, axis=1) <= 1))


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
    residuals = _span_residual(P, Q.design_matrix)
    outside = np.flatnonzero(residuals > tol.lin_solve)
    if outside.size:
        j = int(outside[0])
        raise OutsideSpanError(residuals[j], f"target element {j}")
    c = optimal_dual(P, ensemble).coords.T @ Q.design_matrix
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
            np.sort(x), np.sort(observable.eigenvalues), atol=observable.tol.lin_solve
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
    # spectral projectors are orthogonal, so normalizing each gives an
    # orthonormal basis of the function-of-X subspace
    U = coords(X.projectors).real.T
    return off_span(U / np.linalg.norm(U, axis=0), P.design_matrix)


def looks_like_convex_union(P: Povm, observables) -> bool:
    """Every element of P proportional to a spectral projector of some observable.

    Such POVMs arise from randomly choosing which observable to measure,
    and their joint-measurement certificates are automatic.
    """
    tol = P.tol
    traces = np.real(np.trace(P.elements, axis1=1, axis2=2))
    live = traces > tol.psd_slack
    elements = P.elements[live] / traces[live, None, None]
    projs = np.concatenate([X.projectors for X in observables] or [np.empty((0, P.dim, P.dim))])
    projs = projs / np.real(np.trace(projs, axis1=1, axis2=2))[:, None, None]
    distances = np.linalg.norm(elements[:, None] - projs[None], axis=(2, 3))
    return bool(np.all(np.any(distances <= tol.lin_solve, axis=1)))


def find_joint_measurement(P: Povm, observables) -> JointMeasurementResult:
    """Joint-measurement certificates for several observables from one POVM.

    For each observable ``X`` with spectrum size ``s`` one LP searches a
    Markov map from P's outcomes onto ``s + 1`` outcomes (one slack
    outcome for discarded weight) such that the processed POVM is a
    function of X.  The uniform map ``1/(s+1)`` is always admissible, and
    any other differs from it by ``K_X z_h`` in each output h, with ``K_X``
    an orthonormal basis of the null space of the function-of-X rows
    ``(1 - Pi_X) V``; the LP runs over those ``z_h`` only.  It maximizes
    the overlap ``sum_h Tr[Q_h X_h]`` between the first ``s`` processed
    elements and the spectral projectors.  HiGHS solves the LP's dual, in
    which ``m >= 0`` and the unit column sums become the variables, and
    the optimal ``z_h`` are read from its equality marginals
    (:func:`_reduced_lp`).  The reported ``alignment`` is the overlap of
    the returned map.  Constant columns in the returned map flag
    certificates that ignore the data.
    """
    observables = list(observables)
    certificates = []
    for idx, X in enumerate(observables):
        if X.dim != P.dim:
            raise ValueError(f"observable {idx} dimension mismatch")
        s = X.spectrum_size
        cost = np.zeros((s + 1, len(P)))
        cost[:s] = -coords(X.projectors).real @ P.design_matrix  # maximize sum_h Tr[Q_h X_h]
        # the uniform map is admissible, and any other differs from it in the null space
        uniform = np.full((s + 1, len(P)), 1.0 / (s + 1))
        # the rows vanish up to rounding when every element is a function of X,
        # so their zero singular values are measured against V's largest
        K = svd_and_null_basis(_function_of_constraints(X, P), P.tol, scale=P.svd[1][0])[3]
        m = _reduced_lp(uniform, K, cost)
        if m is None:
            return JointMeasurementResult(False, certificates, idx, False)
        markov = MarkovMatrix(m, tol=P.tol)
        processed = Povm(np.tensordot(m, P.elements, axes=(1, 0)), tol=P.tol, drop_zero=False)
        spread = float(np.max(np.abs(m - m.mean(axis=1, keepdims=True))))
        certificates.append(
            JointCertificate(
                markov=markov,
                povm=processed,
                trivial=spread <= FEASIBILITY_RESIDUAL,
                alignment=float(-np.sum(cost * m)),
            )
        )
    return JointMeasurementResult(
        True, certificates, None, looks_like_convex_union(P, observables)
    )
