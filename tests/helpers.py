"""Shared random constructions for the test suite."""

import numpy as np

from povmlab.povm import Observable, Povm
from povmlab.processing import Ensemble

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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
