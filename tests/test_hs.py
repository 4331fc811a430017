"""Vectorization, inner products, and the small linear-algebra toolbox."""

import numpy as np
import pytest

from povmlab.hs import (
    DEFAULT_TOL,
    Tolerances,
    as_operator,
    dagger,
    off_span,
    span_basis,
    truncated_svd,
)
from povmlab.povm import Povm

from helpers import random_hermitian


def flatten(X):
    """The HS vector of X as the library forms it: a column of the design matrix."""
    return Povm([X], validate=False, drop_zero=False).design_matrix[:, 0]


class TestVectorization:
    """Row-major stacking and its interaction with operator products."""

    def test_row_major_order(self):
        X = np.arange(4.0).reshape(2, 2)
        assert np.array_equal(flatten(X), [0.0, 1.0, 2.0, 3.0])

    def test_inner_product_is_trace_pairing(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        Y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.vdot(flatten(X), flatten(Y)) == pytest.approx(np.trace(dagger(X) @ Y))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_kron_action_matches_vectorized_operator(self, d):
        rng = np.random.default_rng(d)
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.allclose(np.kron(A, B) @ flatten(X), flatten(A @ X @ B.T))


class TestOperatorPredicates:
    def test_as_operator_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            as_operator(np.zeros((2, 3)))

    def test_as_operator_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_operator(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestPseudoinverseAndSpans:
    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 5))  # rank 3
        U, s, Vh = truncated_svd(A)
        Ap = (Vh.conj().T / s) @ U.conj().T
        assert np.allclose(A @ Ap @ A, A, atol=1e-10)
        assert np.allclose(Ap @ A @ Ap, Ap, atol=1e-10)

    def test_numerical_rank_ignores_noise(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 6))
        A = A + 1e-13 * rng.normal(size=(6, 6))
        assert len(truncated_svd(A)[1]) == 2

    def test_span_projector_is_projector_onto_span(self):
        rng = np.random.default_rng(5)
        ops = [random_hermitian(2, rng) for _ in range(2)]
        # a dependent third operator adds no direction
        U = span_basis(ops + [ops[0] - 2.0 * ops[1]])
        assert U.shape == (4, 2)
        assert np.allclose(dagger(U) @ U, np.eye(2), atol=1e-12)
        Pi = U @ dagger(U)
        assert np.allclose(Pi @ Pi, Pi, atol=1e-12)
        for op in ops:
            assert np.linalg.norm(off_span(U, op.reshape(-1))) < 1e-10
        # a generic third operator leaves the span, by its distance from it
        v = random_hermitian(2, rng).reshape(-1)
        assert np.linalg.norm(off_span(U, v)) == pytest.approx(np.linalg.norm(Pi @ v - v))
        assert np.linalg.norm(off_span(U, v)) > 1e-3
        with pytest.raises(ValueError, match="at least one"):
            span_basis([])
        with pytest.raises(ValueError, match="one dimension"):
            span_basis([np.eye(2), np.eye(3)])


class TestTolerances:
    def test_defaults(self):
        assert DEFAULT_TOL.eig_zero == 1e-10
        assert DEFAULT_TOL.psd_slack == 1e-10
        assert DEFAULT_TOL.lin_solve == 1e-9
        assert DEFAULT_TOL.cluster == 1e-8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerances(eig_zero=0.0, psd_slack=1e-10, lin_solve=1e-9, cluster=1e-8)
