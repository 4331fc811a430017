"""Tests for classical post-processing: Markov maps, cleanness, smearing, blurring."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from povmlab import postproc
from povmlab.hs import Tolerances, coords, svd_and_null_basis
from povmlab.povm import Observable, Povm
from povmlab.postproc import (
    FEASIBILITY_RESIDUAL,
    MarkovMatrix,
    apply_post_processing,
    blur_for_post_processing,
    convex_union,
    find_joint_measurement,
    find_post_processing,
    is_clean,
    is_imperfect_measurement_of,
    is_post_processing_of,
    looks_like_convex_union,
    minimal_blur,
    smear_out,
    t1_identify,
    t2_permute,
    t3_split,
    unbias,
)
from povmlab.processing import OutsideSpanError
from povmlab.qubit import optimal_four_outcome, sigma_pm
from povmlab.standard import (
    pauli_observable,
    pauli_projective,
    projective_povm,
    sic_povm,
    six_state_ensemble,
    trine_povm,
)

from helpers import ill_conditioned_minimal_povm, random_ensemble, random_povm

I2 = np.eye(2)


def random_markov(n_out, n_in, rng):
    m = rng.random((n_out, n_in)) + 0.05
    return MarkovMatrix(m / m.sum(axis=0, keepdims=True))


class TestMarkovMatrix:
    def test_shape_and_entries(self):
        m = MarkovMatrix([[1.0, 0.25], [0.0, 0.75]])
        assert m.rows == 2 and m.cols == 2
        assert_allclose(m.m.sum(axis=0), [1.0, 1.0])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match=r"m\(1\|0\)"):
            MarkovMatrix([[1.2, 0.0], [-0.2, 1.0]])

    def test_bad_column_sum_rejected(self):
        with pytest.raises(ValueError, match="column 1"):
            MarkovMatrix([[0.5, 0.9], [0.5, 0.3]])

    def test_tiny_negative_clipped(self):
        m = MarkovMatrix([[1.0 + 1e-12, 0.5], [-1e-12, 0.5]])
        assert np.all(m.m >= 0.0)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            MarkovMatrix([0.5, 0.5])

    def test_nonfinite_entry_rejected(self):
        # NaN passes every comparison-based check, so it needs its own
        with pytest.raises(ValueError, match="finite"):
            MarkovMatrix([[np.nan, 0.5], [1.0, 0.5]])

    def test_compose(self):
        rng = np.random.default_rng(3)
        inner = random_markov(3, 4, rng)
        outer = random_markov(2, 3, rng)
        both = outer.compose(inner)
        assert_allclose(both.m, outer.m @ inner.m)
        assert_allclose(both.m.sum(axis=0), np.ones(4), atol=1e-12)

    def test_compose_shape_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="inner"):
            random_markov(2, 3, rng).compose(random_markov(2, 3, rng))


class TestElementaryMaps:
    def test_identify_merges_two_outcomes(self):
        P = sic_povm()
        merged = t1_identify(P, 0, 2)
        assert len(merged) == 3
        assert_allclose(merged.elements[0], P.elements[0] + P.elements[2], atol=1e-14)
        assert_allclose(merged.elements[1], P.elements[1], atol=1e-14)
        assert_allclose(merged.elements[2], P.elements[3], atol=1e-14)
        # the Markov entries are exact 0/1, so the sums are too
        assert np.array_equal(merged.elements, [P[0] + P[2], P[1], P[3]])
        # merging into a later position shifts it down by one
        assert np.array_equal(t1_identify(P, 3, 1).elements, [P[0], P[2], P[3] + P[1]])

    @pytest.mark.parametrize("j,k", [(0, 0), (-1, 2), (0, 4)])
    def test_identify_bad_indices(self, j, k):
        with pytest.raises(ValueError):
            t1_identify(sic_povm(), j, k)

    def test_permute_relabels(self):
        P = sic_povm()
        perm = [2, 0, 3, 1]
        Q = t2_permute(P, perm)
        for i, src in enumerate(perm):
            assert_allclose(Q.elements[i], P.elements[src], atol=1e-14)
        assert np.array_equal(Q.elements, P.elements[perm])

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            t2_permute(sic_povm(), [0, 1, 1, 2])

    def test_split_weights(self):
        P = projective_povm("z")
        Q = t3_split(P, 0, 0.25)
        assert len(Q) == 3
        assert_allclose(Q.elements[0], 0.25 * P.elements[0], atol=1e-14)
        assert_allclose(Q.elements[1], 0.75 * P.elements[0], atol=1e-14)
        assert_allclose(Q.elements[2], P.elements[1], atol=1e-14)
        assert np.array_equal(Q.elements, [0.25 * P[0], 0.75 * P[0], P[1]])

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
    def test_split_weight_range(self, p):
        with pytest.raises(ValueError, match="split weight"):
            t3_split(projective_povm("z"), 0, p)

    def test_split_index_range(self):
        with pytest.raises(ValueError, match="out of range"):
            t3_split(projective_povm("z"), 2, 0.5)

    def test_merge_undoes_split(self):
        P = sic_povm()
        back = t1_identify(t3_split(P, 1, 0.3), 1, 2)
        for a, b in zip(back.elements, P.elements):
            assert_allclose(a, b, atol=1e-14)


class TestFindPostProcessing:
    def test_recovers_unique_markov_over_independent_povm(self):
        # SIC elements are linearly independent, so the processing
        # coefficients of any coarse-graining are unique
        P = sic_povm()
        rng = np.random.default_rng(7)
        m = random_markov(3, 4, rng)
        Q = apply_post_processing(P, m)
        search = find_post_processing(Q, P)
        assert search.feasible
        assert search.residual <= FEASIBILITY_RESIDUAL
        assert_allclose(search.markov.m, m.m, atol=1e-7)

    def test_independent_povm_needs_no_lp(self, monkeypatch):
        # with no null space the unique coefficients V^+ W decide by their signs
        P = sic_povm()
        Q = apply_post_processing(P, random_markov(3, 4, np.random.default_rng(5)))

        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(postproc, "linprog", no_lp)
        search = find_post_processing(Q, P)
        assert search.feasible and search.residual <= FEASIBILITY_RESIDUAL

    def test_feasible_over_dependent_povm(self):
        union = convex_union(projective_povm("z"), projective_povm("x"), 0.5)
        m = random_markov(2, 4, np.random.default_rng(11))
        Q = apply_post_processing(union, m)
        search = find_post_processing(Q, union)
        assert search.feasible
        realized = apply_post_processing(union, search.markov)
        for a, b in zip(realized.elements, Q.elements):
            assert_allclose(a, b, atol=1e-8)

    def test_projective_from_sic_infeasible(self):
        # the exact coefficients are (2, 0, 0, 0) and (-1, 1, 1, 1); no
        # nonnegative column-stochastic matrix comes closer than 1/3
        search = find_post_processing(projective_povm("z"), sic_povm())
        assert not search.feasible
        assert search.markov is None
        assert abs(search.residual - 1.0 / 3.0) < 1e-6

    def test_reflexive(self):
        for P in (sic_povm(), trine_povm(), projective_povm("x")):
            assert is_post_processing_of(P, P)

    def test_transitive(self):
        P = sic_povm()
        rng = np.random.default_rng(19)
        Q1 = apply_post_processing(P, random_markov(3, 4, rng))
        Q2 = apply_post_processing(Q1, random_markov(2, 3, rng))
        assert is_post_processing_of(Q2, P)

    def test_permutations_are_equivalent(self):
        P = sic_povm()
        Q = t2_permute(P, [3, 2, 1, 0])
        assert is_post_processing_of(Q, P)
        assert is_post_processing_of(P, Q)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="same space"):
            find_post_processing(Povm([np.eye(3)]), sic_povm())


def loop_witness_lp(V, W):
    """Reference witness LP, entry by entry: ``(cost, A_ub, b_ub, bounds)``.

    The variables are ``y+_j``, then ``y-_j`` (``d^2`` HS coordinates per
    target outcome j), then ``t_i``.  Row ``j * n_in + i`` is
    ``(y+_j - y-_j) . v_i - t_i <= 0``, and the last row bounds
    ``sum_j |y_j|_1`` by one.
    """
    n_dim, n_in = V.shape
    n_out = W.shape[1]
    n_y = n_out * n_dim
    cost, bounds = np.ones(2 * n_y + n_in), np.zeros((2 * n_y + n_in, 2))
    block, b = np.zeros((n_out * n_in + 1, 2 * n_y + n_in)), np.zeros(n_out * n_in + 1)
    for j in range(n_out):
        for a in range(n_dim):
            cost[j * n_dim + a], cost[n_y + j * n_dim + a] = -W[a, j], W[a, j]
            for i in range(n_in):
                block[j * n_in + i, j * n_dim + a] = V[a, i]
                block[j * n_in + i, n_y + j * n_dim + a] = -V[a, i]
        for i in range(n_in):
            block[j * n_in + i, 2 * n_y + i] = -1.0
    block[-1, :2 * n_y], b[-1] = 1.0, 1.0
    bounds[:, 1] = np.inf
    bounds[2 * n_y:, 0] = -np.inf
    return cost, block, b, bounds


def loop_reduced_constraints(K, n_out):
    """Reference, entry by entry: the ``-K`` blocks of ``m0_j + K z_j >= 0``, the ``sum_j z_j`` rows."""
    n_in, k = K.shape
    block = np.zeros((n_out * n_in, n_out * k))
    sums = np.zeros((k, n_out * k))
    for j in range(n_out):
        for i in range(n_in):
            for c in range(k):
                block[j * n_in + i, j * k + c] = -K[i, c]
        for c in range(k):
            sums[c, j * k + c] = 1.0
    return block, sums


class TestMarkovLpConstraints:
    """Each LP hands HiGHS exactly the constraints of the loop-built reference."""

    @staticmethod
    def _captured(monkeypatch, call):
        constraints = []
        original = postproc.linprog

        def capturing(cost, **kwargs):
            constraints.append({k: v.toarray() if hasattr(v, "toarray") else v
                                for k, v in kwargs.items()})
            constraints[-1]["cost"] = cost
            return original(cost, **kwargs)

        monkeypatch.setattr(postproc, "linprog", capturing)
        call()
        return constraints

    def test_post_processing(self, monkeypatch):
        # six qubit outcomes span the four HS directions, leaving a null space of two
        P = random_povm(2, 6, np.random.default_rng(8))
        Q = apply_post_processing(P, random_markov(3, 6, np.random.default_rng(3)))
        (got,) = self._captured(monkeypatch, lambda: find_post_processing(Q, P))
        K = P.null_basis
        assert K.shape == (6, 2)
        block, sums = loop_reduced_constraints(K, len(Q))
        m0 = (np.linalg.pinv(P.design_matrix) @ Q.design_matrix).T
        assert np.array_equal(got["A_ub"], block) and np.array_equal(got["A_eq"], sums)
        assert_allclose(got["b_ub"], m0.ravel(), rtol=0.0, atol=1e-12)
        assert_allclose(got["b_eq"], K.T @ (1.0 - m0.sum(axis=0)), rtol=0.0, atol=1e-12)
        assert got["bounds"] == (None, None) and not np.any(got["cost"])

    def test_infeasible_target_runs_the_full_minimax_lp(self, monkeypatch):
        # the SIC elements are independent, so only the witness LP, the dual of
        # the minimax LP over all of m, runs
        P, Q = sic_povm(), projective_povm("z")
        (got,) = self._captured(monkeypatch, lambda: find_post_processing(Q, P))
        cost, block, b_ub, bounds = loop_witness_lp(P.design_matrix, Q.design_matrix)
        assert set(got) == {"cost", "A_ub", "b_ub", "bounds"}
        assert np.array_equal(got["A_ub"], block) and np.array_equal(got["b_ub"], b_ub)
        assert np.array_equal(got["cost"], cost) and np.array_equal(got["bounds"], bounds)

    def test_joint_measurement(self, monkeypatch):
        # the alignment LP is solved as its dual: min b . y + b_eq . w subject
        # to A^T y + A_eq^T w = -(cost @ K), y >= 0 and w free
        P, X = sic_povm(), pauli_observable("x")
        (got,) = self._captured(monkeypatch, lambda: find_joint_measurement(P, [X]))
        rows = postproc._function_of_constraints(X, P)
        K = svd_and_null_basis(rows, P.tol, scale=P.svd[1][0])[3]
        n_out, k = X.spectrum_size + 1, K.shape[1]
        block, sums = loop_reduced_constraints(K, n_out)
        assert set(got) == {"cost", "A_eq", "b_eq", "bounds"}
        assert np.array_equal(got["A_eq"], np.hstack([block.T, sums.T]))
        # the uniform map is the particular solution, so the sums need no correction
        assert np.array_equal(got["cost"][:-k], np.full(n_out * len(P), 1.0 / n_out))
        assert_allclose(got["cost"][-k:], 0.0, rtol=0.0, atol=1e-15)
        cost = np.zeros((n_out, len(P)))
        cost[:-1] = -coords(X.projectors).real @ P.design_matrix
        assert_allclose(got["b_eq"], -(cost @ K).ravel(), rtol=0.0, atol=1e-15)
        assert np.array_equal(got["bounds"][:-k], np.tile([0.0, np.inf], (n_out * len(P), 1)))
        assert np.array_equal(got["bounds"][-k:], np.tile([-np.inf, np.inf], (k, 1)))


class TestIsClean:
    @pytest.mark.parametrize(
        "P", [sic_povm(), trine_povm(), projective_povm("y")], ids=["sic", "trine", "proj"]
    )
    def test_rank_one_povms_are_clean(self, P):
        assert is_clean(P)

    def test_trivial_povm_not_clean(self):
        assert not is_clean(Povm([np.eye(2)]))

    def test_noisy_povm_not_clean(self):
        blur = blur_for_post_processing(
            sic_povm(), projective_povm("z"), six_state_ensemble()
        )
        assert not is_clean(blur.blurred)


class TestSmearOut:
    def test_single_negative_entry_example(self):
        Q = projective_povm("z")
        c = np.array([[1.2, -0.2], [0.3, 0.7]])
        smeared, markov = smear_out(Q, c)
        # alpha = (0, 0.2) so every element is rescaled by 1.2
        assert_allclose(smeared.elements[0], Q.elements[0] / 1.2, atol=1e-14)
        assert_allclose(smeared.elements[1], (Q.elements[1] + 0.2 * I2) / 1.2, atol=1e-14)
        assert_allclose(markov.m, [[1.0, 0.25], [0.0, 0.75]], atol=1e-14)

    def test_smeared_target_is_post_processing(self):
        # exact coefficients of the z-projectors over the SIC elements
        P = sic_povm()
        Q = projective_povm("z")
        c = np.array([[2.0, -1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        for j in range(2):
            assert_allclose(
                np.tensordot(c[:, j], P.elements, axes=(0, 0)), Q.elements[j], atol=1e-12
            )
        smeared, markov = smear_out(Q, c)
        assert_allclose(markov.m, [[1, 0, 0, 0], [0, 1, 1, 1]], atol=1e-14)
        realized = apply_post_processing(P, markov)
        for a, b in zip(realized.elements, smeared.elements):
            assert_allclose(a, b, atol=1e-12)
        # the smeared "+1" element collapses onto the apex SIC element
        assert_allclose(smeared.elements[0], P.elements[0], atol=1e-14)

    def test_nonnegative_coefficients_unchanged(self):
        Q = projective_povm("x")
        c = np.array([[0.7, 0.3], [0.2, 0.8]])
        smeared, markov = smear_out(Q, c)
        for a, b in zip(smeared.elements, Q.elements):
            assert_allclose(a, b, atol=1e-14)
        assert_allclose(markov.m, c.T, atol=1e-14)

    def test_row_sum_violation_rejected(self):
        with pytest.raises(ValueError, match="row 0"):
            smear_out(projective_povm("z"), np.array([[0.5, 0.2], [0.3, 0.7]]))

    def test_wrong_column_count_rejected(self):
        with pytest.raises(ValueError, match="one column per target outcome"):
            smear_out(projective_povm("z"), np.array([[0.5, 0.3, 0.2]]))


class TestMinimalBlur:
    def test_values(self):
        assert minimal_blur(-0.1, 2) == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert minimal_blur(-0.25, 4) == pytest.approx(0.5, abs=1e-15)
        assert minimal_blur(-1.0, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("c_min", [0.0, 0.3, 2.0])
    def test_nonnegative_coefficients_need_no_blur(self, c_min):
        assert minimal_blur(c_min, 5) == 0.0


class TestBlur:
    def test_projective_from_sic_fixture(self):
        blur = blur_for_post_processing(
            sic_povm(), projective_povm("z"), six_state_ensemble()
        )
        assert blur.epsilon_star == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert blur.inflation == pytest.approx(9.0, abs=1e-10)
        assert_allclose(
            blur.coefficients, [[2, -1], [0, 1], [0, 1], [0, 1]], atol=1e-10
        )
        third = 1.0 / 3.0
        assert_allclose(
            blur.markov.m,
            [[1, third, third, third], [0, 2 * third, 2 * third, 2 * third]],
            atol=1e-10,
        )
        assert_allclose(blur.outcome_values, [1.0, -1.0])

    def test_blurred_elements_and_synthesis(self):
        P = sic_povm()
        blur = blur_for_post_processing(P, projective_povm("z"), six_state_ensemble())
        SZ = np.diag([1.0, -1.0])
        assert_allclose(blur.blurred.elements[0], (3 * I2 + SZ) / 6.0, atol=1e-12)
        assert_allclose(blur.blurred.elements[1], (3 * I2 - SZ) / 6.0, atol=1e-12)
        realized = apply_post_processing(P, blur.markov)
        for a, b in zip(realized.elements, blur.blurred.elements):
            assert_allclose(a, b, atol=1e-10)

    def test_spectral_target_orders_by_eigenvalue(self):
        blur = blur_for_post_processing(
            sic_povm(), pauli_projective("z"), six_state_ensemble()
        )
        assert_allclose(blur.outcome_values, [-1.0, 1.0])
        third = 1.0 / 3.0
        assert_allclose(
            blur.markov.m,
            [[0, 2 * third, 2 * third, 2 * third], [1, third, third, third]],
            atol=1e-10,
        )

    def test_already_feasible_target_needs_no_blur(self):
        P = sic_povm()
        m = random_markov(2, 4, np.random.default_rng(23))
        Q = apply_post_processing(P, m)
        blur = blur_for_post_processing(P, Q, six_state_ensemble())
        assert blur.epsilon_star == pytest.approx(0.0, abs=1e-10)
        assert blur.inflation == pytest.approx(1.0, abs=1e-9)
        assert_allclose(blur.markov.m, m.m, atol=1e-8)

    def test_ill_conditioned_source(self):
        # column i of the Markov matrix sums to (1 - eps) Tr[D_i] + eps, so
        # the optimal dual's trace error must stay inside lin_solve
        P = ill_conditioned_minimal_povm()
        rng = np.random.default_rng(10)
        blur = blur_for_post_processing(P, random_povm(3, 3, rng), random_ensemble(3, 3, rng))
        realized = apply_post_processing(P, blur.markov)
        for a, b in zip(realized.elements, blur.blurred.elements):
            assert_allclose(a, b, atol=FEASIBILITY_RESIDUAL)

    def test_target_outside_span_rejected(self):
        with pytest.raises(OutsideSpanError):
            blur_for_post_processing(
                trine_povm(), pauli_projective("z"), six_state_ensemble()
            )


class TestUnbias:
    @staticmethod
    def _z_blur():
        return blur_for_post_processing(
            sic_povm(), pauli_projective("z"), six_state_ensemble()
        )

    def test_probabilities_round_trip(self):
        blur = self._z_blur()
        target = np.array([0.3, 0.7])  # outcomes ordered (-1, +1)
        observed = (1.0 - blur.epsilon_star) * target + blur.epsilon_star / 2.0
        assert_allclose(unbias(blur, observed), target, atol=1e-12)

    def test_expectation_round_trip(self):
        blur = self._z_blur()
        target = np.array([0.3, 0.7])
        observed = (1.0 - blur.epsilon_star) * target + blur.epsilon_star / 2.0
        est = unbias(blur, observed, observable=pauli_observable("z"))
        assert est == pytest.approx(0.4, abs=1e-12)

    def test_out_of_range_frequencies_clamped(self):
        blur = self._z_blur()
        with pytest.warns(UserWarning, match="clamping"):
            recovered = unbias(blur, np.array([1.0, 0.0]))
        assert_allclose(recovered, [1.0, 0.0], atol=1e-12)

    def test_blur_weight_of_one_rejected(self):
        blur = dataclasses.replace(self._z_blur(), epsilon_star=1.0)
        with pytest.raises(ValueError, match="blur weight"):
            unbias(blur, np.array([0.5, 0.5]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="observed frequencies"):
            unbias(self._z_blur(), np.array([0.2, 0.3, 0.5]))

    def test_spectrum_size_mismatch_rejected(self):
        P = sic_povm()
        m = random_markov(3, 4, np.random.default_rng(29))
        blur = blur_for_post_processing(
            P, apply_post_processing(P, m), six_state_ensemble()
        )
        with pytest.raises(ValueError, match="spectrum size"):
            unbias(blur, np.full(3, 1.0 / 3.0), observable=pauli_observable("z"))

    def test_unlabeled_target_rejects_observable_path(self):
        SX = np.array([[0.0, 1.0], [1.0, 0.0]])
        Q = Povm([0.5 * (I2 + SX), 0.5 * (I2 - SX)])  # no outcome labels
        blur = blur_for_post_processing(sic_povm(), Q, six_state_ensemble())
        with pytest.raises(ValueError, match="eigenvalues as labels"):
            unbias(blur, np.array([0.5, 0.5]), observable=pauli_observable("x"))

    def test_wrong_eigenvalues_rejected(self):
        blur = self._z_blur()
        shifted = Observable(np.diag([2.0, 0.0]))
        with pytest.raises(ValueError, match="eigenvalues as labels"):
            unbias(blur, np.array([0.5, 0.5]), observable=shifted)

    def test_label_match_reads_the_observable_tolerance(self):
        # at eigenvalue 0 only the absolute tolerance applies; the label is 1e-8 off
        X = np.diag([0.0, 1.0])
        Q = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=[0.0, 1.0])
        blur = blur_for_post_processing(sic_povm(), Q, six_state_ensemble())
        blur = dataclasses.replace(blur, outcome_values=np.array([1e-8, 1.0]))
        observed = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="eigenvalues as labels"):
            unbias(blur, observed, observable=Observable(X))
        loose = Observable(X, tol=Tolerances(lin_solve=1e-7))
        assert unbias(blur, observed, observable=loose) == pytest.approx(0.5, abs=1e-7)


class TestConvexUnion:
    def test_elements_and_weights(self):
        P, Q = projective_povm("z"), projective_povm("x")
        U = convex_union(P, Q, 0.25)
        assert len(U) == 4
        assert_allclose(U.elements[0], 0.25 * P.elements[0], atol=1e-14)
        assert_allclose(U.elements[3], 0.75 * Q.elements[1], atol=1e-14)

    @pytest.mark.parametrize("lam", [-0.1, 1.5])
    def test_weight_range(self, lam):
        with pytest.raises(ValueError, match="mixing weight"):
            convex_union(projective_povm("z"), projective_povm("x"), lam)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="same space"):
            convex_union(projective_povm("z"), Povm([np.eye(3)]), 0.5)


class TestImperfectMeasurement:
    def test_blurred_spectral_povm_reads_out_observable(self):
        blur = blur_for_post_processing(
            sic_povm(), pauli_projective("z"), six_state_ensemble()
        )
        assert is_imperfect_measurement_of(blur.blurred, pauli_observable("z"))

    def test_incompatible_axis(self):
        assert not is_imperfect_measurement_of(
            projective_povm("x"), pauli_observable("z")
        )

    def test_coarse_graining_of_spectral_povm(self):
        noisy = apply_post_processing(
            pauli_projective("y"), MarkovMatrix([[0.9, 0.2], [0.1, 0.8]])
        )
        assert is_imperfect_measurement_of(noisy, pauli_observable("y"))


class TestJointMeasurement:
    def test_four_outcome_optimum_is_union_of_axis_projectives(self):
        # at theta = pi/4 the elements are (1/4)(1 +- sx) and (1/4)(1 +- sy)
        P = optimal_four_outcome(np.pi / 4.0)
        observables = [pauli_observable("x"), pauli_observable("y")]
        result = find_joint_measurement(P, observables)
        assert result.feasible
        assert result.failed_index is None
        assert result.convex_union_shaped
        for cert, X in zip(result.certificates, observables):
            assert not cert.trivial
            assert cert.alignment == pytest.approx(1.5, abs=1e-7)
            assert cert.markov.rows == 3 and cert.markov.cols == 4
            # the processed elements must be functions of X
            for q in cert.povm.elements:
                combo = sum(
                    np.real(np.trace(proj @ q)) / np.real(np.trace(proj)) * proj
                    for proj in X.projectors
                )
                assert np.linalg.norm(q - combo) <= 1e-7

    def test_four_outcome_optimum_measures_both_rotated_targets(self):
        theta = np.pi / 4.0
        P = optimal_four_outcome(theta)
        plus, minus = sigma_pm(theta)
        result = find_joint_measurement(P, [Observable(plus), Observable(minus)])
        assert result.feasible
        # the rotated targets sit diagonally between the element axes
        assert not result.convex_union_shaped
        for cert in result.certificates:
            assert not cert.trivial
            assert cert.alignment == pytest.approx(1.0 + 0.5 * np.sqrt(2.0), abs=1e-7)

    def test_projective_certificate_for_wrong_axis_is_trivial(self):
        result = find_joint_measurement(
            pauli_projective("z"), [pauli_observable("x")]
        )
        assert result.feasible
        cert = result.certificates[0]
        assert cert.trivial
        assert cert.alignment <= 1.0 + 1e-8

    def test_sic_aligns_nontrivially_with_two_axes(self):
        result = find_joint_measurement(
            sic_povm(), [pauli_observable("x"), pauli_observable("z")]
        )
        assert result.feasible
        assert not result.convex_union_shaped
        align_x, align_z = (c.alignment for c in result.certificates)
        assert not result.certificates[0].trivial
        assert not result.certificates[1].trivial
        # the apex element is proportional to the +z projector, so the z
        # alignment saturates; the x axis sits askew of all four vertices
        assert align_z == pytest.approx(1.5, abs=1e-7)
        assert align_x == pytest.approx((3.0 + np.sqrt(2.0)) / 3.0, abs=1e-7)
        assert 1.0 + 1e-6 < align_x < align_z

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            find_joint_measurement(sic_povm(), [Observable(np.diag([0.0, 1.0, 2.0]))])

    def test_convex_union_shape_detection(self):
        union = convex_union(projective_povm("z"), projective_povm("x"), 0.5)
        axes = [pauli_observable("z"), pauli_observable("x")]
        assert looks_like_convex_union(union, axes)
        assert not looks_like_convex_union(sic_povm(), axes)
        assert not looks_like_convex_union(union, [pauli_observable("z")])
