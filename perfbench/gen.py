"""Seeded random inputs for the workloads.

These constructions follow the test suite's helpers but live here on
purpose: an edit to the tests must never change what the benchmark
measures.  Every array a workload draws passes through an
:class:`InputDigest`, so two runs can show that they saw the same inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np


class InputDigest:
    """SHA-256 over the shape, dtype and bytes of every generated array."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, a):
        a = np.ascontiguousarray(a)
        self._hash.update(f"{a.dtype.str}{a.shape}".encode())
        self._hash.update(a.tobytes())
        return a

    def add_bytes(self, data: bytes) -> bytes:
        self._hash.update(data)
        return data

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def hermitian(d, rng):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (G + G.conj().T)


def mixed_state(d, rng):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = G @ G.conj().T
    return rho / np.real(np.trace(rho))


def povm_elements(d, n, rng):
    """``n`` full-rank Wishart pieces conjugated by the inverse square root of their sum.

    Generic draws span ``min(n, d^2)`` dimensions: ``n == d^2`` gives a
    linearly independent informationally complete POVM, ``n > d^2`` an
    overcomplete one and ``n < d^2`` a span-deficient one.
    """
    G = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    raw = np.einsum("nij,nkj->nik", G, G.conj())
    w, U = np.linalg.eigh(raw.sum(axis=0))
    inv_sqrt = (U / np.sqrt(w)) @ U.conj().T
    return inv_sqrt @ raw @ inv_sqrt


def ensemble_arrays(d, k, rng):
    """Weights and ``k`` full-rank states; every outcome then has positive probability."""
    return rng.dirichlet(np.ones(k)), np.stack([mixed_state(d, rng) for _ in range(k)])


def markov(rows, cols, rng):
    """Column-stochastic ``rows x cols`` matrix with strictly positive entries."""
    m = rng.random((rows, cols)) + 0.05
    return m / m.sum(axis=0, keepdims=True)


def spectral_projectors(d, rng):
    """Eigenvalues and rank-one eigenprojectors of a random observable."""
    lam, vec = np.linalg.eigh(hermitian(d, rng))
    return lam, np.einsum("ak,bk->kab", vec, vec.conj())


def span_target(elements, rng):
    """A random real combination of the elements, made exactly Hermitian."""
    X = np.tensordot(rng.normal(size=len(elements)), elements, axes=(0, 0))
    return 0.5 * (X + X.conj().T)
