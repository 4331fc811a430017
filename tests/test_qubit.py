"""Planar qubit noise quantities, the joint-error bound, and its achieving families."""

import numpy as np
import pytest

from povmlab.postproc import is_clean
from povmlab.povm import Povm, ZeroElementWarning
from povmlab.processing import Ensemble, min_error
from povmlab.qubit import (
    DegeneratePovmWarning,
    NotIsotropicError,
    ZeroAlphaWarning,
    bloch_coefficients,
    bloch_povm,
    error_bound,
    noise_quantities,
    optimal_four_outcome,
    optimal_three_outcome,
    sigma_pm,
)
from povmlab.standard import sic_povm, six_state_ensemble, trine_povm

from helpers import SX, SY, SZ, optimal_B, random_planar_rank_one_povm

THETAS = [np.pi / 8, np.pi / 4, 3 * np.pi / 8]


class TestRotatedTargets:
    def test_components(self):
        plus, minus = sigma_pm(0.3)
        assert np.allclose(plus, np.cos(0.3) * SX + np.sin(0.3) * SY)
        assert np.allclose(minus, np.cos(0.3) * SX - np.sin(0.3) * SY)

    @pytest.mark.parametrize("theta", THETAS)
    def test_commutator(self, theta):
        plus, minus = sigma_pm(theta)
        comm = plus @ minus - minus @ plus
        assert np.allclose(comm, -2j * np.sin(2 * theta) * SZ, atol=1e-12)

    def test_endpoint_warns(self):
        with pytest.warns(DegeneratePovmWarning):
            sigma_pm(0.0)


class TestBlochPovm:
    def test_round_trip(self):
        P = trine_povm()
        rows = bloch_coefficients(P)
        assert rows.shape == (3, 4)
        assert np.allclose(bloch_povm(rows).elements, P.elements, atol=1e-12)
        assert np.allclose(bloch_coefficients(bloch_povm(rows)), rows, atol=1e-12)

    def test_rank_one_detection(self):
        assert is_clean(trine_povm())
        smeared = Povm([0.5 * np.eye(2), 0.5 * np.eye(2)])
        assert not is_clean(smeared)


class TestNoiseQuantities:
    def test_trine_is_isotropic_in_the_plane(self):
        s = noise_quantities(trine_povm(), six_state_ensemble(), np.pi / 4)
        assert s.B == pytest.approx(1.0)
        assert s.Gamma == pytest.approx(1.0)
        assert s.Delta == pytest.approx(0.0, abs=1e-12)
        assert s.kappa == pytest.approx(1 / 3)

    def test_trine_achieves_bound_only_at_central_angle(self):
        # constant total error 10/3 versus a bound peaking at pi/4
        for theta in THETAS:
            s = noise_quantities(trine_povm(), six_state_ensemble(), theta)
            assert s.total_error == pytest.approx(10 / 3)
            if abs(theta - np.pi / 4) < 1e-12:
                assert s.total_error == pytest.approx(s.bound)
            else:
                assert s.total_error > s.bound + 1e-3

    def test_rejects_out_of_plane_povm(self):
        with pytest.raises(ValueError, match="sigma_z"):
            noise_quantities(sic_povm(), six_state_ensemble(), np.pi / 4)

    def test_rejects_anisotropic_ensemble(self):
        skewed = Ensemble([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
        with pytest.raises(NotIsotropicError):
            noise_quantities(trine_povm(), skewed, np.pi / 4)

    def test_zero_trace_elements_warn_and_drop(self):
        coeffs = np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [1 / 3, 1 / 3, 0.0, 0.0],
                [1 / 3, -1 / 6, np.sqrt(3) / 6, 0.0],
                [1 / 3, -1 / 6, -np.sqrt(3) / 6, 0.0],
            ]
        )
        P = Povm([a * np.eye(2) + b * SX + g * SY + d * SZ for a, b, g, d in coeffs],
                 drop_zero=False)
        with pytest.warns(ZeroAlphaWarning):
            s = noise_quantities(P, six_state_ensemble(), np.pi / 4)
        ref = noise_quantities(trine_povm(), six_state_ensemble(), np.pi / 4)
        assert s.B == pytest.approx(ref.B)

    def test_matches_general_minimum_error(self):
        # the closed-form per-target errors agree with the span-based
        # minimum-error machinery on the same single-target problems
        rng = np.random.default_rng(0)
        E = six_state_ensemble()
        for _ in range(5):
            P = random_planar_rank_one_povm(int(rng.integers(3, 6)), rng)
            theta = float(rng.uniform(0.1, np.pi / 2 - 0.1))
            s = noise_quantities(P, E, theta)
            plus, minus = sigma_pm(theta)
            assert s.error_plus == pytest.approx(min_error(P, E, plus), abs=1e-8)
            assert s.error_minus == pytest.approx(min_error(P, E, minus), abs=1e-8)


class TestBound:
    def test_formula(self):
        assert error_bound(np.pi / 4, 1 / 3) == pytest.approx(10 / 3)
        assert error_bound(0.2, 0.5) == pytest.approx(2 * (1 + np.sin(0.4) - 0.5))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_random_planar_povms_respect_bound(self, n):
        rng = np.random.default_rng(100 + n)
        E = six_state_ensemble()
        for _ in range(10):
            P = random_planar_rank_one_povm(n, rng)
            theta = float(rng.uniform(0.05, np.pi / 2 - 0.05))
            s = noise_quantities(P, E, theta)
            assert s.total_error >= s.bound - 1e-9


class TestOptimalFamilies:
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("family", [optimal_three_outcome, optimal_four_outcome])
    def test_achieves_bound(self, family, theta):
        P = family(theta)
        s = noise_quantities(P, six_state_ensemble(), theta)
        assert s.total_error == pytest.approx(s.bound, abs=1e-9)

    @pytest.mark.parametrize("theta", THETAS)
    def test_families_are_valid_rank_one_povms(self, theta):
        for family, n in [(optimal_three_outcome, 3), (optimal_four_outcome, 4)]:
            P = family(theta)
            assert len(P) == n
            assert np.allclose(P.elements.sum(axis=0), np.eye(2), atol=1e-12)
            assert is_clean(P)

    def test_four_outcome_B_matches_closed_form(self):
        for theta in THETAS:
            s = noise_quantities(
                optimal_four_outcome(theta), six_state_ensemble(), theta
            )
            assert s.B == pytest.approx(optimal_B(theta), abs=1e-12)
            assert s.Delta == pytest.approx(0.0, abs=1e-12)

    def test_equal_errors_at_central_angle(self):
        s = noise_quantities(
            optimal_four_outcome(np.pi / 4), six_state_ensemble(), np.pi / 4
        )
        assert s.error_plus == pytest.approx(5 / 3, abs=1e-9)
        assert s.error_minus == pytest.approx(5 / 3, abs=1e-9)

    def test_rejects_theta_outside_range(self):
        with pytest.raises(ValueError):
            optimal_three_outcome(-0.1)
        with pytest.raises(ValueError):
            optimal_four_outcome(2.0)

    def test_endpoint_degeneracy_warns(self):
        # at theta = 0 the sy pair carries no weight and is dropped too
        with pytest.warns(DegeneratePovmWarning):
            with pytest.warns(ZeroElementWarning):
                P = optimal_four_outcome(0.0)
        assert len(P) == 2


class TestSymmetrization:
    def test_kills_delta_and_keeps_B(self):
        # the halved union with the complex-conjugate POVM flips gamma and
        # keeps alpha, beta and delta, so Delta vanishes and B, Gamma stay
        rng = np.random.default_rng(7)
        E = six_state_ensemble()
        for _ in range(5):
            P = random_planar_rank_one_povm(4, rng)
            s0 = noise_quantities(P, E, np.pi / 4)
            sym = Povm(0.5 * np.concatenate([P.elements, P.elements.conj()]))
            s1 = noise_quantities(sym, E, np.pi / 4)
            assert s1.Delta == pytest.approx(0.0, abs=1e-12)
            assert s1.B == pytest.approx(s0.B, abs=1e-12)
            assert s1.Gamma == pytest.approx(s0.Gamma, abs=1e-12)
            assert s1.total_error <= s0.total_error + 1e-12
