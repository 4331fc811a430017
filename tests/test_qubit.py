"""Planar qubit noise quantities, the joint-error bound, and its achieving families."""

from fractions import Fraction
from math import atan2

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


def exact_four_outcome(c, s):
    """The four-outcome optimum at ``cos theta = c``, ``sin theta = s``, in exact arithmetic.

    Returns p, B, Gamma, Delta and the total error of sigma_+- under the
    six-state ensemble, from the Bloch rows ``(alpha, beta, gamma)`` of
    ``(p/2)(1 +- sx)`` and ``((1 - p)/2)(1 +- sy)`` by the planar reduction.
    """
    p = c / (c + s)
    rows = [(p / 2, p / 2, 0), (p / 2, -p / 2, 0), ((1 - p) / 2, 0, (1 - p) / 2),
            ((1 - p) / 2, 0, -(1 - p) / 2)]
    B = 2 * sum(b * b / a for a, b, _ in rows)
    Gamma = 2 * sum(g * g / a for a, _, g in rows)
    Delta = -2 * sum(b * g / a for a, b, g in rows)
    # <sigma_+->^2 = (c x +- s y)^2 averaged over the Bloch vectors +-x, +-y, +-z
    axes = [(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0), (0, 0)]
    m_plus = sum((c * x + s * y) ** 2 for x, y in axes) / 6
    m_minus = sum((c * x - s * y) ** 2 for x, y in axes) / 6
    Dtm = B * Gamma - Delta ** 2
    cross = 2 * c * s
    errors = [(2 / Dtm) * (c * c * Gamma + s * s * B + sign * cross * Delta) - m
              for sign, m in ((1, m_plus), (-1, m_minus))]
    return p, B, Gamma, Delta, sum(errors), 2 * (1 + cross - (m_plus + m_minus) / 2)


@pytest.mark.parametrize("c, s, p, total", [
    (Fraction(4, 5), Fraction(3, 5), Fraction(4, 7), Fraction(244, 75)),
    (Fraction(5, 13), Fraction(12, 13), Fraction(5, 17), Fraction(1396, 507)),
    (Fraction(8, 17), Fraction(15, 17), Fraction(8, 23), Fraction(2596, 867)),
], ids=["4/5", "5/13", "8/17"])
def test_four_outcome_optimum_in_exact_arithmetic(c, s, p, total):
    # at a Pythagorean angle every quantity is rational: a reference for the
    # bound's acceptance line that uses no floating point
    got_p, B, Gamma, Delta, got_total, bound = exact_four_outcome(c, s)
    assert (got_p, B, Gamma, Delta) == (p, 2 * p, 2 * (1 - p), 0)
    assert got_total == bound == total
    theta = atan2(float(s), float(c))
    P, E = optimal_four_outcome(theta), six_state_ensemble()
    summary = noise_quantities(P, E, theta)
    for value, exact in [(summary.B, B), (summary.Gamma, Gamma), (summary.total_error, total),
                         (summary.bound, total),
                         (sum(min_error(P, E, X) for X in sigma_pm(theta)), total)]:
        assert abs(value - float(exact)) <= 4e-15 * float(exact)
    assert abs(summary.Delta) <= 4e-15
