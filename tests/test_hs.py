"""Vectorization, inner products, and the small linear-algebra toolbox."""

import numpy as np
import pytest

from povmlab.hs import (
    DEFAULT_TOL,
    Tolerances,
    as_operator,
    dagger,
    hs_norm,
    span_projector,
    truncated_svd,
    vectorize,
)

from helpers import random_hermitian


class TestVectorization:
    """Row-major stacking and its interaction with operator products."""

    def test_row_major_order(self):
        X = np.arange(4.0).reshape(2, 2)
        assert np.array_equal(vectorize(X), [0.0, 1.0, 2.0, 3.0])

    def test_inner_product_is_trace_pairing(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        Y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.vdot(vectorize(X), vectorize(Y)) == pytest.approx(np.trace(dagger(X) @ Y))

    def test_norm(self):
        X = np.diag([3.0, 4.0])
        assert hs_norm(X) == pytest.approx(5.0)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_kron_action_matches_vectorized_operator(self, d):
        rng = np.random.default_rng(d)
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.allclose(np.kron(A, B) @ vectorize(X), vectorize(A @ X @ B.T))


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
        Pi = span_projector(ops)
        assert np.allclose(Pi @ Pi, Pi, atol=1e-12)
        assert np.allclose(dagger(Pi), Pi, atol=1e-12)
        for op in ops:
            v = vectorize(op)
            assert np.linalg.norm(Pi @ v - v) < 1e-10
        # a generic third operator leaves the span
        X = random_hermitian(2, rng)
        v = vectorize(X)
        assert np.linalg.norm(Pi @ v - v) > 1e-3


class TestTolerances:
    def test_defaults(self):
        assert DEFAULT_TOL.eig_zero == 1e-10
        assert DEFAULT_TOL.psd_slack == 1e-10
        assert DEFAULT_TOL.lin_solve == 1e-9
        assert DEFAULT_TOL.cluster == 1e-8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerances(eig_zero=0.0, psd_slack=1e-10, lin_solve=1e-9, cluster=1e-8)
