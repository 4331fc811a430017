"""HS coordinates, inner products, and the small linear-algebra toolbox."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import povmlab
from povmlab.hs import (
    DEFAULT_TOL,
    Tolerances,
    as_operator,
    coords,
    dagger,
    from_coords,
    off_span,
    span_basis,
    svd_and_null_basis,
    truncated_svd,
)

from helpers import random_hermitian


class TestVectorization:
    """The HS coordinate map: basis order, isometry, round trip and real coordinates."""

    def test_basis_order_on_a_qubit(self):
        r = np.sqrt(0.5)
        basis = [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, r], [r, 0]], [[0, 1j * r], [-1j * r, 0]]]
        assert np.allclose(from_coords(np.eye(4)), basis, rtol=0.0, atol=1e-15)
        X = np.array([[1.0, 2.0 + 3.0j], [2.0 - 3.0j, 4.0]])
        assert np.allclose(coords(X), [1.0, 4.0, 2.0 * np.sqrt(2.0), 3.0 * np.sqrt(2.0)])
        with pytest.raises(ValueError, match="square"):
            from_coords(np.zeros(5))

    def test_inner_product_is_trace_pairing(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        Y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.vdot(coords(X), coords(Y)) == pytest.approx(np.trace(dagger(X) @ Y))
        assert np.allclose(from_coords(coords(X)), X, rtol=0.0, atol=1e-14)

    def test_self_adjoint_operators_have_real_coordinates(self):
        rng = np.random.default_rng(2)
        stack = np.stack([random_hermitian(3, rng) for _ in range(4)])
        v = coords(stack)
        assert v.shape == (4, 9) and v.dtype == np.float64
        assert np.allclose(from_coords(v), stack, rtol=0.0, atol=1e-14)
        assert np.iscomplexobj(coords(stack[0] + 1j * stack[1]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_map_is_a_c_linear_isometry_with_its_inverse(self, d, seed):
        rng = np.random.default_rng(seed)
        X, Y = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert coords(X).shape == (d * d,)
        assert np.vdot(coords(X), coords(Y)) == pytest.approx(np.trace(dagger(X) @ Y))
        assert np.allclose(coords(a * X + b * Y), a * coords(X) + b * coords(Y))
        assert np.allclose(coords(dagger(X)), np.conj(coords(X)))
        assert np.allclose(from_coords(coords(X)), X, rtol=0.0, atol=1e-13)


def test_only_hs_flattens_or_rebuilds_operators():
    """The modules built on ``hs`` reach operator vectors through ``hs.coords`` alone."""
    root = Path(povmlab.__file__).parent
    pattern = re.compile(r"reshape\(.*-1|\.imag\b")
    hits = [f"{name}:{lineno}: {line.strip()}"
            for name in ("povm.py", "processing.py", "abspace.py", "postproc.py")
            for lineno, line in enumerate((root / name).read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


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

    def test_null_basis_completes_the_row_span(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 7))  # rank 2
        K = svd_and_null_basis(A + 1e-13 * rng.normal(size=(4, 7)))[3]
        assert K.shape == (7, 5) and K.dtype == np.float64
        assert np.allclose(K.T @ K, np.eye(5), atol=1e-12)
        assert np.max(np.abs(A @ K)) < 1e-10
        Vh = truncated_svd(A)[2]
        assert np.allclose(Vh @ K, 0.0, atol=1e-10)
        # a remainder that is zero up to rounding is all null space at the
        # scale of the matrix it came from, but not at its own
        noise = 1e-17 * rng.normal(size=(4, 7))
        assert svd_and_null_basis(noise, scale=1.0)[3].shape == (7, 7)
        assert svd_and_null_basis(noise)[3].shape == (7, 3)

    def test_span_projector_is_projector_onto_span(self):
        rng = np.random.default_rng(5)
        ops = [random_hermitian(2, rng) for _ in range(2)]
        # a dependent third operator adds no direction
        U = span_basis(ops + [ops[0] - 2.0 * ops[1]])
        assert U.shape == (4, 2) and U.dtype == np.float64
        assert np.allclose(dagger(U) @ U, np.eye(2), atol=1e-12)
        Pi = U @ dagger(U)
        assert np.allclose(Pi @ Pi, Pi, atol=1e-12)
        for op in ops:
            assert np.linalg.norm(off_span(U, coords(op))) < 1e-10
        # a generic third operator leaves the span, by its distance from it
        v = coords(random_hermitian(2, rng))
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
