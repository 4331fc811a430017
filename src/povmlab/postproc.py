"""Classical post-processing of POVMs: Markov maps, cleanness, blurring.

A POVM ``Q`` is a post-processing of ``P`` when ``Q_j = sum_i m(j|i) P_i``
for a column-stochastic matrix ``m`` (columns indexed by the input
outcome i).  Every question of this module about that relation is one
least blur (:func:`least_blur`): the largest ``lam`` for which the
uniformly blurred target ``lam Q_j + (1 - lam)/M`` is a post-processing
of P.  One :class:`LeastBlur` holds it together with a Markov map that
realizes it, a witness that bounds it and the map's residual; the check,
the blur and every joint-measurement certificate are that one object.
It runs over the null space of P's design matrix: ``lam = 0`` with no LP
when Q leaves P's span, a ratio test when P's elements are linearly
independent, and otherwise one LP, solved through its dual by HiGHS's
dual simplex (Q. Huangfu & J. A. J. Hall, Math. Prog. Comp. 10, 119
(2018)).  The LP's constraint matrix is built column by column from its
known structure and handed as arrays by :func:`linprog`, the one seam
every LP goes through, to scipy's compiled HiGHS core, loaded without
``scipy.optimize``, on one solver reused per thread.  Q is a
post-processing of P exactly when ``lam = 1``
(:func:`find_post_processing`); otherwise the witness, operators ``Y_j``
anyone can check without an LP, proves it (the robustness form of the
guessing-game witness, P. Skrzypczyk & N. Linden, PRL 122, 140403
(2019)).  Joint measurement (:func:`find_joint_measurement`) takes the
least blur of each observable's spectral POVM; the product of their
Markov maps applied to P is a joint POVM of the blurred observables, and
every visibility is positive exactly when P's span holds every spectral
projector (for two observables A and B, when P is AB-infocomplete).  For
qubits the least blur is Busch's unsharpness parameter (P. Busch, PRD 33,
2253 (1986)).  The blur that makes Q reachable
(:func:`blur_for_post_processing`) is the least blur too, with the noise
weight ``eps* = 1 - lam`` that unbiasing undoes.

The module also implements the elementary merge/permute/split maps and
tests cleanness (maximality under the induced pseudo-order).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .hs import (DEFAULT_TOL, OutsideSpanError, SolverError, Tolerances, coords, from_coords,
                 off_span)
from .povm import Observable, Povm, spectral_povm

#: Largest admissible synthesis residual (entrywise) for declaring that a
#: candidate Markov matrix realizes the target POVM.
FEASIBILITY_RESIDUAL = 1e-8

# 1e-10 is the tightest feasibility tolerance the HiGHS backend accepts
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
_SOLVER = threading.local()  # one HiGHS instance per thread, made on its first LP
_HIGHS_CORE = "scipy.optimize._highspy._core"
_HIGHS_LOCK = threading.Lock()  # the first LPs of several threads load the core once


@dataclass
class LpResult:
    """What :func:`linprog` reports; ``fun``, ``x`` and ``marginals`` are set on success only."""

    success: bool
    message: str
    fun: float | None = None
    x: np.ndarray | None = None
    marginals: np.ndarray | None = None


def _highs_core():
    """scipy's compiled HiGHS bindings, ``scipy.optimize._highspy._core``, loaded on their own.

    ``import scipy.optimize`` runs that package's init, which loads
    ``scipy.linalg``, ``scipy.sparse`` and the array-API layer, none of which
    an LP here needs: 0.3-0.55 s of a cold start, against 5-9 ms for the
    extension alone.  So the extension is found in scipy's directory
    (``find_spec("scipy")`` imports nothing) and loaded under its full name.
    It is registered in ``sys.modules``, where a later ``import
    scipy.optimize`` finds it, and an entry already there, from an earlier
    LP or from scipy, is reused: the process holds one module object, and
    no LP after the first looks for the file.
    """
    with _HIGHS_LOCK:
        core = sys.modules.get(_HIGHS_CORE)
        if core is not None:
            return core
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            _HIGHS_CORE, [os.path.join(root, "optimize", "_highspy")
                          for root in scipy.submodule_search_locations])
        if spec is None:
            raise ModuleNotFoundError(f"No module named {_HIGHS_CORE!r}", name=_HIGHS_CORE)
        core = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS_CORE] = core
        try:
            spec.loader.exec_module(core)
        except BaseException:
            del sys.modules[_HIGHS_CORE]
            raise
        return core


def linprog(cost, bounds, start, index, value, row_lower, row_upper):
    """Minimize ``cost @ x`` subject to ``row_lower <= A x <= row_upper`` and ``bounds``.

    ``A`` comes column-wise: column c holds ``value[start[c]:start[c + 1]]``
    in rows ``index[start[c]:start[c + 1]]``, ascending.  ``bounds`` is one
    ``(lower, upper)`` pair for every variable, or one row per variable; an
    infinite entry leaves that side free.  The arrays go to HiGHS as they
    are, through the array form of ``passModel``, and HiGHS runs its dual
    simplex once at :data:`_LP_OPTIONS` with presolve off.  On the
    least-blur LP presolve removes no row or column, yet it took about half
    of HiGHS's own time: over the 96 LPs of the overcomplete inputs of the
    ``lp`` benchmark at seed 7, HiGHS ran 0.32 s with it and 0.18 s
    without, and the least blurs of the ``lp`` inputs of seeds 1-3 come out
    bit-identical either way.  Each thread keeps one solver and passes it
    the options once; ``passModel`` replaces the model and drops the basis,
    so every LP is solved from scratch.

    The result is an :class:`LpResult`: ``success`` (an optimal solution),
    ``message`` (HiGHS's model status), and on success ``fun``, ``x`` and
    ``marginals``, the row duals, with the sign ``scipy.optimize.linprog``
    gives them.  HiGHS's compiled core is loaded here, on the first call
    (:func:`_highs_core`), so that only callers that solve an LP pay for
    loading it; ``scipy.optimize`` itself is never imported.
    """
    highs = _highs_core()
    solver = getattr(_SOLVER, "highs", None)
    if solver is None:
        options = highs.HighsOptions()
        options.output_flag = False
        options.presolve = "off"
        for name, setting in _LP_OPTIONS.items():
            setattr(options, name, setting)
        solver = _SOLVER.highs = highs._Highs()
        solver.passOptions(options)
    n, m = len(cost), len(row_lower)
    lower, upper = np.broadcast_to(np.asarray(bounds, dtype=float), (n, 2)).T.copy()
    passed = solver.passModel(n, m, len(value), highs.MatrixFormat.kColwise,
                              highs.ObjSense.kMinimize, 0.0, cost, lower, upper, row_lower,
                              row_upper, start, index, value, np.zeros(n, np.int32))
    if passed == highs.HighsStatus.kError:  # the solver may still hold parts of the last LP
        raise ValueError("HiGHS rejected the LP's arrays")
    solver.run()
    status = solver.getModelStatus()
    res = LpResult(success=status == highs.HighsModelStatus.kOptimal,
                   message=solver.modelStatusToString(status))
    if res.success:
        solution = solver.getSolution()
        res.fun = solver.getInfo().objective_function_value
        res.x = np.array(solution.col_value)
        res.marginals = np.array(solution.row_dual)
    return res


def _sign_bounds(n_nonneg: int, n_free: int) -> np.ndarray:
    """:func:`linprog` bounds: ``n_nonneg`` nonnegative variables, then ``n_free`` free ones."""
    return np.repeat([[0.0, np.inf], [-np.inf, np.inf]], [n_nonneg, n_free], axis=0)


def _stochastic(m: np.ndarray) -> np.ndarray:
    """``m`` clipped at zero, with its columns renormalized to sum to one."""
    m = np.clip(m, 0.0, None)
    return m / m.sum(axis=0, keepdims=True)


class MarkovMatrix:
    """Column-stochastic conditional-probability matrix ``m[j, i] = m(j|i)``."""

    def __init__(self, m, tol: Tolerances = DEFAULT_TOL):
        mat = np.asarray(m, dtype=float)
        if mat.ndim != 2:
            raise ValueError("Markov matrix must be two-dimensional")
        if not np.all(np.isfinite(mat)):
            raise ValueError("Markov matrix entries must be finite")
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


@dataclass(frozen=True, eq=False)
class LeastBlur:
    """The least blur of a target Q over P (:func:`least_blur`), its map and its witness.

    ``visibility`` is the largest ``lam`` in [0, 1] for which
    ``lam Q_j + (1 - lam)/M 1`` is a post-processing of P, and ``markov``
    (built at ``P.tol``) realizes it.  ``residual`` is that map's largest
    synthesis miss against Q itself, ``|V m^T - W|`` (V and W the design
    matrices of P and Q); it is ``(1 - lam) max_j |w_j - e/M|`` up to
    rounding, with ``e`` the coordinates of the identity.  Q is a
    post-processing of P, with that map, when the residual is at most
    :data:`FEASIBILITY_RESIDUAL` (``feasible``).

    ``witness`` holds self-adjoint ``Y_j`` (an ``(M, d, d)`` array, one per
    target outcome) with ``sum_j Tr[Y_j (Q_j - 1/M)] = 1`` whenever
    ``lam < 1``, whose bound ``sum_i max_j Tr[Y_j P_i] - sum_j Tr[Y_j]/M``
    equals ``lam``.  Anyone can check, without an LP, that every
    post-processing of P reaching ``l Q_j + (1 - l)/M 1`` has ``l`` at most
    that bound, so a bound below 1 certifies that Q is none.  This is the
    robustness form of the guessing-game witness (P. Skrzypczyk &
    N. Linden, PRL 122, 140403 (2019); M. Oszmaniec & T. Biswas, Quantum 3,
    133 (2019)).

    Read as a blur, ``epsilon_star = 1 - lam`` is the least weight of
    uniform noise, ``Q_j(eps) = (1 - eps) Q_j + eps/M``, that makes Q
    reachable from P, and ``blurred`` is that POVM, at ``P.tol``.  For
    ``lam > 0``, ``coefficients[i, j] = (m(j|i) - eps*/M)/lam`` are a
    processing of Q, ``sum_i c[i, j] P_i = Q_j``, and unbiasing divides by
    ``lam``, which inflates statistical errors by ``inflation = 1/lam^2``;
    at ``lam = 0`` both raise ``ValueError``.
    ``outcome_values`` are Q's labels as numbers, or None when Q carries no
    numeric labels; they keep unbiasing aligned outcome-wise.
    """

    target: Povm
    visibility: float
    markov: MarkovMatrix
    witness: np.ndarray
    residual: float

    @property
    def feasible(self) -> bool:
        return self.residual <= FEASIBILITY_RESIDUAL

    @property
    def epsilon_star(self) -> float:
        return 1.0 - self.visibility

    @property
    def inflation(self) -> float:
        return 1.0 / self._unbiasable()**2

    @property
    def blurred(self) -> Povm:
        Q, noise = self.target, self.epsilon_star / len(self.target)
        return Povm(self.visibility * Q.elements + noise * np.eye(Q.dim), tol=self.markov.tol)

    @property
    def coefficients(self) -> np.ndarray:
        return ((self.markov.m - self.epsilon_star / len(self.target)) / self._unbiasable()).T

    def _unbiasable(self) -> float:
        """The visibility, which the unbiasing divides by, checked to be positive."""
        if not self.visibility > 0.0:
            raise ValueError(f"visibility {self.visibility!r} leaves nothing to unbias; "
                             "it must be above 0")
        return self.visibility

    @property
    def outcome_values(self) -> np.ndarray | None:
        try:
            return np.array([float(lab) for lab in self.target.labels])
        except (TypeError, ValueError):  # no labels, or one that is not a number
            return None


def least_blur(P: Povm, Q: Povm) -> LeastBlur:
    """The largest ``lam`` in [0, 1] with ``lam Q_j + (1 - lam)/M 1`` a post-processing of P.

    Returned as a :class:`LeastBlur`, with a Markov matrix ``m`` that
    realizes it, ``sum_i m(j|i) P_i = lam Q_j + (1 - lam)/M 1`` for the M
    outcomes of Q, and a witness that bounds it.  Every such ``m`` is
    ``m_j = 1/M + lam a_j + K z_j``, with ``a_j = V^+ (w_j - e/M)`` read
    from P's cached canonical dual (``w_j`` and ``e`` the coordinates of
    ``Q_j`` and of the identity) and ``K = P.null_basis``.  When some
    ``Q_j`` lies off P's span only the uniform map ``lam = 0`` exists, and
    no LP runs.  When P's elements are linearly independent (K empty), a
    ratio test gives ``lam = min(1, min over a < 0 of (1/M) / -a)``.
    Otherwise one LP runs, the dual of "maximize ``lam`` subject to
    ``m >= 0`` and ``sum_j z_j = 0``": minimize
    ``sum_j sum_i mu_ji / M + beta`` over ``mu >= 0`` (one per entry of m),
    ``beta >= 0`` (for ``lam <= 1``) and a free ``nu`` (k entries, for the
    column sums), subject to ``K^T mu_j = nu`` and
    ``sum_j a_j . mu_j - beta <= -1``.  Its optimum is ``lam``, the
    marginals of the ``K^T mu_j = nu`` rows are ``-z_j``, and ``mu``, moved
    into V's row space, gives the witness.  ``m`` is returned clipped at
    zero with its columns renormalized.
    """
    if Q.dim != P.dim:
        raise ValueError("POVMs must act on the same space")
    W, M, N = Q.design_matrix, len(Q), len(P)
    uniform = np.full((M, N), 1.0 / M)
    U, s, Vh = P.svd
    off = off_span(U, W)
    if np.any(np.linalg.norm(off, axis=0) > P.tol.lin_solve):
        # Tr[Y_j P_i] = 0 = Tr[Y_j], so the bound is 0
        lam, m, y = 0.0, uniform, off.T / np.sum(off * off)
    else:
        a = (W.T - coords(np.eye(P.dim)) / M) @ P.canonical_coords  # row j is a_j
        K = P.null_basis
        k = K.shape[1]
        if k:
            n = M * N
            # column mu_ji holds a_ji in row 0 and K[i, :] in rows 1 + jk .. 1 + (j + 1)k,
            # column beta -1 in row 0, and column nu_c -1 in row 1 + jk + c for every j
            value = np.empty((M, N, 1 + k))
            value[..., 0], value[..., 1:] = a, K
            index = np.zeros((M, N, 1 + k), np.int32)
            index[..., 1:] = 1 + k * np.arange(M)[:, None, None] + np.arange(k)
            end = n * (1 + k) + 1
            row_upper = np.concatenate([[-1.0], np.zeros(M * k)])  # row 0 is the one inequality
            res = linprog(np.concatenate([np.full(n, 1.0 / M), [1.0], np.zeros(k)]),
                          _sign_bounds(n + 1, k),
                          np.concatenate([np.arange(0, end, 1 + k),
                                          np.arange(end, end + M * k + 1, M)], dtype=np.int32),
                          np.concatenate([index.ravel(), [0], index[:, 0, 1:].T.ravel()],
                                         dtype=np.int32),
                          np.concatenate([value.ravel(), np.full(1 + M * k, -1.0)]),
                          np.where(row_upper < 0.0, -np.inf, 0.0), row_upper)
            # mu = 0, beta = 1 is feasible and the cost is >= 0, yet HiGHS may stop
            if not res.success:
                raise SolverError(res.message)
            lam = float(min(max(res.fun, 0.0), 1.0))
            m = uniform + lam * a - res.marginals[1:].reshape(M, k) @ K.T
            mu = res.x[:n].reshape(M, N) - res.x[n + 1:] @ K.T  # mu_j - K nu, in V's row space
        else:
            j, i = np.unravel_index(np.argmin(a), a.shape)
            lam = float(-1.0 / (M * a[j, i])) if M * a[j, i] < -1.0 else 1.0
            m = uniform + lam * a
            mu = np.zeros((M, N))
            if lam < 1.0:
                mu[j, i] = -1.0 / a[j, i]
        m, y = _stochastic(m), -((mu @ Vh.T) / s) @ U.T
    residual = float(np.max(np.abs(P.design_matrix @ m.T - W)))
    return LeastBlur(Q, lam, MarkovMatrix(m, tol=P.tol), from_coords(y), residual)


def find_post_processing(Q: Povm, P: Povm) -> LeastBlur:
    """Search for a Markov matrix ``m`` with ``Q_j = sum_i m(j|i) P_i``.

    Q is a post-processing of P exactly when its least blur over P is 1, so
    the search is the least blur (:func:`least_blur`): no LP when Q leaves
    P's span or P's elements are linearly independent, one LP otherwise.
    Its ``feasible`` is the verdict, its ``markov`` the map when Q is
    reachable, and its ``witness`` the proof when Q is not.
    """
    return least_blur(P, Q)


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


def blur_for_post_processing(P: Povm, Q: Povm, ensemble=None) -> LeastBlur:
    """Blur ``Q`` just enough that it becomes a post-processing of ``P``.

    That blur is the least blur of Q over P (:func:`least_blur`), read
    through its ``epsilon_star``, ``blurred``, ``coefficients`` and
    ``inflation``.  When some ``Q_j`` lies off P's span (``lam = 0``) no
    blur helps, and :class:`OutsideSpanError` names the first such j.
    ``ensemble`` is ignored, as the least blur needs none; it stays for
    callers that pass it positionally.
    """
    blur = least_blur(P, Q)
    if blur.visibility == 0.0:
        residuals = np.linalg.norm(off_span(P.svd[0], Q.design_matrix), axis=0)
        j = int(np.flatnonzero(residuals > P.tol.lin_solve)[0])
        raise OutsideSpanError(residuals[j], f"target element {j}")
    return blur


def unbias(blur: LeastBlur, observed, observable: Observable | None = None):
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
        # eigenvalue order, so use the target's own outcome labels
        # (spectral POVMs label outcomes by eigenvalue)
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


@dataclass(frozen=True)
class JointMeasurementResult:
    """Per-observable least blurs and the product POVM built from their maps.

    ``certificates`` holds one :class:`LeastBlur` per observable, of its
    spectral POVM over P.  ``joint`` has one outcome per tuple
    ``(h_1, h_2, ...)`` of the observables' outcomes, in row-major order.
    """

    feasible: bool
    certificates: list
    joint: Povm


def find_joint_measurement(P: Povm, observables) -> JointMeasurementResult:
    """A joint measurement of blurred versions of several observables from P.

    Each observable X gets the :func:`least_blur` of its spectral POVM over
    P, with visibility ``lam_X`` and Markov map ``m_X``.  The product POVM
    ``G_ab... = sum_i m_A(a|i) m_B(b|i) ... P_i`` then has, as its marginals,
    the blurred observables ``lam_X X_h + (1 - lam_X)/s_X 1``.  ``feasible``
    is true when every visibility is positive, which happens exactly when
    every spectral projector lies in P's span; for two observables A and B
    that is AB-infocompleteness.  No SVD is taken beyond P's cached one.
    """
    certificates = []
    product = np.ones((1, len(P)))
    for idx, X in enumerate(observables):
        if X.dim != P.dim:
            raise ValueError(f"observable {idx} dimension mismatch")
        certificates.append(least_blur(P, spectral_povm(X)))
        markov = certificates[-1].markov
        product = (product[:, None] * markov.m).reshape(len(product) * markov.rows, len(P))
    joint = Povm(np.tensordot(product, P.elements, axes=(1, 0)), tol=P.tol,
                 validate=False, drop_zero=False)
    feasible = all(cert.visibility > 0.0 for cert in certificates)
    return JointMeasurementResult(feasible, certificates, joint)
