"""Tests for power subspaces of observable pairs and POVM projections onto them."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import SX, SY, SZ, random_hermitian, random_planar_rank_one_povm, random_povm, random_state
from povmlab.abspace import (
    IllConditionedWarning,
    ab_space,
    independent_powers,
    is_ab_infocomplete,
    is_minimal_ab_infocomplete,
    project_povm,
    vandermonde_recovery,
)
from povmlab.hs import Tolerances, coords
from povmlab.povm import Observable
from povmlab.standard import pauli_observable, projective_povm, sic_povm, trine_povm

I2 = np.eye(2)


class TestIndependentPowers:
    def test_qubit_pauli(self):
        powers = independent_powers(pauli_observable("z"))
        assert powers.shape == (2, 2, 2)
        assert_allclose(powers[0], I2)
        assert_allclose(powers[1], SZ)

    def test_qutrit_three_point_spectrum(self):
        X = Observable(np.diag([0.0, 1.0, 2.0]))
        powers = independent_powers(X)
        assert powers.shape == (3, 3, 3)
        assert_allclose(powers[2], np.diag([0.0, 1.0, 4.0]))

    def test_degenerate_spectrum_truncates(self):
        X = Observable(np.diag([1.0, 1.0, 0.0]))
        assert X.spectrum_size == 2
        assert independent_powers(X).shape == (2, 3, 3)


class TestVandermondeRecovery:
    def test_two_point_spectrum(self):
        rec = vandermonde_recovery(pauli_observable("z"))
        # eigenvalues are ordered ascending, so the first row is p(-1)
        probs = rec.probabilities_from_moments([1.0, 0.4])
        assert_allclose(probs, [0.3, 0.7], atol=1e-14)

    def test_matches_spectral_probabilities(self):
        rng = np.random.default_rng(5)
        X = Observable(np.diag([0.0, 1.0, 3.0]))
        rec = vandermonde_recovery(X)
        rho = random_state(3, rng)
        moments = [np.real(np.trace(rho @ p)) for p in independent_powers(X)]
        direct = [np.real(np.trace(rho @ proj)) for proj in X.projectors]
        assert_allclose(rec.probabilities_from_moments(moments), direct, atol=1e-12)

    def test_single_point_spectrum(self):
        rec = vandermonde_recovery(Observable(np.eye(2)))
        assert rec.condition == 1.0
        assert_allclose(rec.probabilities_from_moments([1.0]), [1.0])

    def test_moment_count_checked(self):
        rec = vandermonde_recovery(pauli_observable("x"))
        with pytest.raises(ValueError, match="expected 2 moments"):
            rec.probabilities_from_moments([1.0, 0.0, 0.5])

    def test_no_warning_for_small_well_separated_spectrum(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vandermonde_recovery(Observable(np.diag([0.0, 1.0, 2.0, 3.0])))

    def test_warns_for_large_spectrum(self):
        X = Observable(np.diag(np.arange(13.0)))
        with pytest.warns(IllConditionedWarning, match="size 13"):
            vandermonde_recovery(X)

    def test_warns_for_nearly_degenerate_spectrum(self):
        fine = Tolerances(cluster=1e-13)
        X = Observable(np.diag([0.0, 1e-11, 1.0]), tol=fine)
        assert X.spectrum_size == 3
        with pytest.warns(IllConditionedWarning, match="condition number"):
            rec = vandermonde_recovery(X)
        assert rec.condition > 1e10


class TestABSpace:
    def test_qubit_plane(self):
        S = ab_space(pauli_observable("x"), pauli_observable("y"))
        assert S.dim == 3
        for op in (I2, SX, SY, 0.3 * SX - 1.2 * SY + 2.0 * I2):
            assert S.contains(op)
        assert not S.contains(SZ)
        assert not S.contains(I2 + 0.01 * SZ)

    def test_shared_observable_collapses(self):
        Z = pauli_observable("z")
        assert ab_space(Z, Z).dim == 2

    def test_dimension_bound(self):
        rng = np.random.default_rng(13)
        for d in (3, 4):
            A = Observable(random_hermitian(d, rng))
            B = Observable(random_hermitian(d, rng))
            S = ab_space(A, B)
            bound = A.spectrum_size + B.spectrum_size - 1
            assert S.dim <= bound
            # generic spectra saturate the bound
            assert S.dim == min(bound, d * d)

    def test_basis_orthonormal_and_projector_idempotent(self):
        S = ab_space(
            Observable(np.diag([0.0, 1.0, 2.0])),
            Observable(random_hermitian(3, np.random.default_rng(17))),
        )
        vecs = S.basis.reshape(S.dim, -1)
        assert_allclose(vecs @ vecs.conj().T, np.eye(S.dim), atol=1e-12)
        assert_allclose(S.columns, coords(S.basis).T)
        projector = S.columns @ S.columns.conj().T
        assert_allclose(projector @ projector, projector, atol=1e-12)
        assert_allclose(projector, projector.conj().T, atol=1e-13)
        assert_allclose(np.trace(projector).real, S.dim, atol=1e-10)

    def test_contains_spectral_projectors(self):
        rng = np.random.default_rng(21)
        A = Observable(random_hermitian(4, rng))
        B = Observable(random_hermitian(4, rng))
        S = ab_space(A, B)
        for proj in list(A.projectors) + list(B.projectors):
            assert S.contains(proj)

    def test_deterministic_rebuild(self):
        rng = np.random.default_rng(2)
        A = Observable(random_hermitian(3, rng))
        B = Observable(random_hermitian(3, rng))
        S1 = ab_space(A, B)
        S2 = ab_space(A, B)
        assert np.array_equal(S1.basis, S2.basis)
        # the other candidate order gives another basis of the same span
        swapped = ab_space(B, A)
        assert swapped.dim == S1.dim
        assert all(S1.contains(b) for b in swapped.basis)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="same space"):
            ab_space(pauli_observable("x"), Observable(np.diag([0.0, 1.0, 2.0])))


class TestABInfocomplete:
    def test_sic_contains_plane_but_not_minimal(self):
        S = ab_space(pauli_observable("x"), pauli_observable("y"))
        P = sic_povm()
        assert is_ab_infocomplete(P, S)
        assert not is_minimal_ab_infocomplete(P, S)

    def test_trine_is_minimal_for_plane(self):
        S = ab_space(pauli_observable("x"), pauli_observable("y"))
        assert is_minimal_ab_infocomplete(trine_povm(), S)

    def test_projective_misses_plane(self):
        S = ab_space(pauli_observable("x"), pauli_observable("y"))
        assert not is_ab_infocomplete(projective_povm("z"), S)

    def test_trine_misses_out_of_plane_pair(self):
        S = ab_space(pauli_observable("x"), pauli_observable("z"))
        assert not is_ab_infocomplete(trine_povm(), S)


class TestProjectPovm:
    def test_sic_projects_to_plane(self):
        S = ab_space(pauli_observable("x"), pauli_observable("y"))
        res = project_povm(sic_povm(), S)
        assert res.ok
        assert res.failures == []
        assert res.povm.labels == [0, 1, 2, 3]
        # the projection drops each element's sz component
        from povmlab.standard import TETRAHEDRON

        for q, n in zip(res.povm.elements, TETRAHEDRON):
            expected = 0.25 * (I2 + n[0] * SX + n[1] * SY)
            assert_allclose(q, expected, atol=1e-12)

    def test_projection_keeps_completeness(self):
        rng = np.random.default_rng(31)
        S = ab_space(pauli_observable("x"), pauli_observable("y"))
        P = random_povm(2, 5, rng)
        res = project_povm(P, S)
        assert_allclose(res.projected.sum(axis=0), I2, atol=1e-10)

    def test_qubit_plane_projection_always_positive(self):
        S = ab_space(pauli_observable("x"), pauli_observable("y"))
        for seed in range(25):
            rng = np.random.default_rng(seed)
            P = random_povm(2, int(rng.integers(2, 7)), rng)
            assert project_povm(P, S).ok

    def test_planar_povm_unchanged(self):
        rng = np.random.default_rng(41)
        S = ab_space(pauli_observable("x"), pauli_observable("y"))
        P = random_planar_rank_one_povm(4, rng)
        res = project_povm(P, S)
        assert res.ok
        for q, m in zip(res.povm.elements, P.elements):
            assert_allclose(q, m, atol=1e-10)

    def test_qutrit_projection_can_fail_positivity(self):
        # frozen counterexample: in d=3 the projected elements need not be
        # positive even though they still sum to the identity
        rng = np.random.default_rng(8)
        A = Observable(random_hermitian(3, rng))
        B = Observable(random_hermitian(3, rng))
        S = ab_space(A, B)
        n = int(rng.integers(3, 7))
        P = random_povm(3, n, rng)
        res = project_povm(P, S)
        assert not res.ok
        assert res.povm is None
        (index, low), = res.failures
        assert index == 1
        assert low == pytest.approx(-0.0123883764, abs=1e-9)
        assert_allclose(res.projected.sum(axis=0), np.eye(3), atol=1e-10)
