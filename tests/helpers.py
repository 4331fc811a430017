"""Shared random constructions for the test suite."""

import numpy as np

from povmlab import postproc
from povmlab.hs import coords, off_span, truncated_svd
from povmlab.montecarlo import outcome_distribution
from povmlab.povm import Observable, Povm
from povmlab.processing import Ensemble, metric_diagonal

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def optimal_B(theta):
    """Arg-min of the rank-one total error over B: ``2 cos t / (cos t + sin t)``."""
    return 2.0 * np.cos(theta) / (np.cos(theta) + np.sin(theta))


def random_hermitian(d, rng, scale=1.0):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (G + G.conj().T)


def random_state(d, rng):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = G @ G.conj().T
    return rho / np.real(np.trace(rho))


def random_pure_state(d, rng):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def kernel_state(m):
    """Pure state in the kernel of a rank-deficient element: it never triggers that outcome."""
    psi = np.linalg.eigh(m)[1][:, 0]
    return np.outer(psi, psi.conj())


def bloch_state(v):
    v = np.asarray(v, dtype=float)
    return 0.5 * (np.eye(2) + v[0] * SX + v[1] * SY + v[2] * SZ)


def random_bloch_state(rng, pure=False):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if not pure:
        v *= rng.random()
    return bloch_state(v)


def random_povm(d, n, rng, rank_one=False):
    """Random POVM from Wishart pieces conjugated by the inverse square root of their sum."""
    cols = 1 if rank_one else d
    G = rng.normal(size=(n, d, cols)) + 1j * rng.normal(size=(n, d, cols))
    raw = np.einsum("nij,nkj->nik", G, G.conj())
    total = raw.sum(axis=0)
    w, U = np.linalg.eigh(total)
    inv_sqrt = (U / np.sqrt(w)) @ U.conj().T
    return Povm(np.einsum("ab,nbc,cd->nad", inv_sqrt, raw, inv_sqrt))


def ill_conditioned_minimal_povm():
    """Fixed d=3, 9-outcome informationally complete POVM with cond(V) about 8e5.

    Its frame operator ``F = V V^dag`` has condition number about 6e11, past
    the ``eig_zero`` cutoff, while V itself keeps all nine directions.
    """
    return random_povm(3, 9, np.random.default_rng(2858))


def random_planar_rank_one_povm(n, rng):
    """Rank-one qubit POVM with every Bloch vector in the x-y plane.

    Elements are ``a_i (1 + cos(phi_i) sx + sin(phi_i) sy)`` with unit
    direction vectors; the last outcome cancels the vector sum so the
    weights can then be normalized to complete the identity.  Such POVMs
    span exactly {1, sx, sy} for generic angles.
    """
    if n < 3:
        raise ValueError("need at least three planar outcomes")
    while True:
        phis = rng.uniform(0.0, 2.0 * np.pi, size=n - 1)
        weights = rng.uniform(0.2, 1.0, size=n - 1)
        vecs = weights[:, None] * np.column_stack([np.cos(phis), np.sin(phis)])
        s = vecs.sum(axis=0)
        norm = np.linalg.norm(s)
        if norm < 1e-3:
            continue
        dirs = np.vstack([np.column_stack([np.cos(phis), np.sin(phis)]), -s[None, :] / norm])
        alphas = np.concatenate([weights, [norm]])
        alphas = alphas / alphas.sum()
        elements = [
            a * (np.eye(2) + u[0] * SX + u[1] * SY)
            for a, u in zip(alphas, dirs)
        ]
        P = Povm(elements)
        if P.span_rank == 3:
            return P


def random_ensemble(d, k, rng):
    weights = rng.dirichlet(np.ones(k))
    return Ensemble(weights, [random_state(d, rng) for _ in range(k)])


def random_observable(d, rng, min_gap=0.0):
    """Random observable; with min_gap, eigenvalues sit on a jittered grid."""
    if min_gap <= 0.0:
        return Observable(random_hermitian(d, rng))
    base = np.arange(d) * (min_gap + rng.random())
    vals = base + rng.uniform(0.0, 0.4 * min_gap, size=d) - base.mean()
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, _ = np.linalg.qr(G)
    return Observable(Q @ np.diag(vals) @ Q.conj().T)


def reference_optimal_dual(P, ensemble):
    """Optimal duals' d^2 x N coordinates by a truncated SVD of the reweighted design matrix.

    The live outcomes L (``pi_i > eig_zero``) take the canonical dual of
    the frame ``Q P_i / sqrt(pi_i)``, with Q the projector off the span of
    the dead elements, rescaled by ``1 / sqrt(pi_i)``; the dead outcomes D
    take the minimum-norm completion ``V_D^+ (Pi - V_L D_L^dag)``.  With
    every outcome live this is ``D_i = G^+ P_i / pi_i``.
    """
    tol = P.tol
    pi = metric_diagonal(P, ensemble).diag
    live = pi > tol.eig_zero
    V = P.design_matrix
    V_L, V_D = V[:, live], V[:, ~live]
    root = np.sqrt(pi[live])
    U_D, s_D, Vh_D = truncated_svd(V_D, tol)
    U, s, Vh = truncated_svd(off_span(U_D, V_L / root), tol)
    duals = np.empty(V.shape)
    duals[:, live] = (U / s) @ Vh / root
    W_D = (U_D / s_D) @ Vh_D  # (V_D^+)^dag
    duals[:, ~live] = W_D - duals[:, live] @ (V_L.T @ W_D)
    return duals


def convex_union(P, Q, lam):
    """Random choice between measurements: elements ``lam P_i``, then ``(1 - lam) Q_j``."""
    return Povm(np.concatenate([lam * P.elements, (1.0 - lam) * Q.elements]), tol=P.tol)


def full_markov_lp(cost, rows, rhs, column, *, equality, upper=None):
    """Reference LP over every entry of a column-stochastic ``m[j, i]``, and one ``t``, built densely.

    Entry ``m[j, i]`` is variable ``j * n_in + i`` (``n_in = rows.shape[1]``),
    and ``t`` comes last.  Each output j obeys
    ``rows @ m_j + column[:, j] t == rhs[:, j]`` when ``equality`` and
    ``<=`` otherwise, each input column of ``m`` sums to one, ``m >= 0`` and
    ``0 <= t <= upper``.  HiGHS runs at the library's options.
    """
    from scipy.optimize import linprog

    n_in, n_out = rows.shape[1], rhs.shape[1]
    per_outcome = np.hstack([np.kron(np.eye(n_out), rows), column.T.reshape(-1, 1)])
    stochastic = np.hstack([np.kron(np.ones((1, n_out)), np.eye(n_in)), np.zeros((n_in, 1))])
    b, ones = rhs.T.ravel(), np.ones(n_in)
    bounds = [(0.0, None)] * (n_out * n_in) + [(0.0, upper)]
    kwargs = dict(bounds=bounds, method="highs", options=postproc._LP_OPTIONS)
    if equality:
        return linprog(cost, A_eq=np.vstack([per_outcome, stochastic]),
                       b_eq=np.concatenate([b, ones]), **kwargs)
    return linprog(cost, A_ub=per_outcome, b_ub=b, A_eq=stochastic, b_eq=ones, **kwargs)


def dense(start, index, value, n_row):
    """The ``n_row``-row matrix of column-wise arrays, checked: ``index`` ascends in each column."""
    A = np.zeros((n_row, len(start) - 1))
    assert start[0] == 0 and start[-1] == len(index) == len(value)
    for c, (lo, hi) in enumerate(zip(start[:-1], start[1:])):
        assert np.all(np.diff(index[lo:hi]) > 0)
        A[index[lo:hi], c] = value[lo:hi]
    return A


def dense_rows(A_ub=(), b_ub=(), A_eq=(), b_eq=()):
    """``postproc.linprog``'s ``(start, index, value, row_lower, row_upper)`` for dense rows.

    The ``A_ub x <= b_ub`` rows come first, then the ``A_eq x == b_eq`` rows.
    """
    A = np.vstack([np.reshape(rows, (len(rhs), -1))
                   for rows, rhs in ((A_ub, b_ub), (A_eq, b_eq)) if len(rhs)])
    col, row = np.nonzero(A.T)  # column-major: row indices ascend within each column
    start = np.searchsorted(col, np.arange(A.shape[1] + 1)).astype(np.int32)
    lower = np.concatenate([np.full(len(b_ub), -np.inf), b_eq])
    return start, row.astype(np.int32), A[row, col], lower, np.concatenate([b_ub, b_eq])


def scipy_linprog(cost, bounds, start, index, value, row_lower, row_upper):
    """``scipy.optimize.linprog`` on ``postproc.linprog``'s arguments, at the library's options.

    Rows with equal bounds are equalities; the others must be ``<=`` rows.
    """
    from scipy.optimize import linprog

    A = dense(start, index, value, len(row_lower))
    eq = row_lower == row_upper
    assert np.all(row_lower[~eq] == -np.inf)
    return linprog(cost, A_ub=A[~eq], b_ub=row_upper[~eq], A_eq=A[eq], b_eq=row_upper[eq],
                   bounds=bounds, method="highs", options=postproc._LP_OPTIONS)


def reference_post_processing(Q, P):
    """``(feasible, residual)`` from the minimax LP over all of m.

    The residual is the largest synthesis miss ``|V m^T - W|`` of the
    optimal m, clipped at zero and with its columns renormalized.
    """
    V, W = P.design_matrix, Q.design_matrix
    cost = np.zeros(len(Q) * len(P) + 1)
    cost[-1] = 1.0
    res = full_markov_lp(cost, np.vstack([V, -V]), np.vstack([W, -W]),
                         -np.ones((2 * len(V), len(Q))), equality=False)
    assert res.success, res.message
    m = np.clip(res.x[:-1].reshape(len(Q), len(P)), 0.0, None)
    m /= m.sum(axis=0, keepdims=True)
    residual = float(np.max(np.abs(V @ m.T - W)))
    return residual <= postproc.FEASIBILITY_RESIDUAL, residual


def reference_least_blur(P, Q):
    """The least blur of Q over P from the LP over all of m and ``lam``.

    Maximizes ``lam`` in [0, 1] subject to ``V m_j = lam w_j + (1 - lam) e/M``
    (``e`` the coordinates of the identity), with m column-stochastic.
    """
    V, W, M = P.design_matrix, Q.design_matrix, len(Q)
    e = coords(np.eye(P.dim))[:, None] / M
    cost = np.zeros(M * len(P) + 1)
    cost[-1] = -1.0
    res = full_markov_lp(cost, V, np.tile(e, (1, M)), e - W, equality=True, upper=1.0)
    assert res.success, res.message
    return res.x[-1]


def plain_lookup_counts(P, rho, start, stop, seed):
    """Counts of draws ``[start, stop)`` by a binary search of each uniform.

    Generates the seed's stream from draw 0 and looks every uniform up in
    the cumulative distribution, the definition the sampler must match.
    """
    edges = np.cumsum(outcome_distribution(P, rho))
    edges[-1] = 1.0
    u = np.random.Generator(np.random.Philox(key=seed)).random(stop)[start:]
    return np.bincount(np.searchsorted(edges, u, side="right"), minlength=len(P))
