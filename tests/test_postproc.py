"""Tests for classical post-processing: Markov maps, cleanness, blurring, least blur."""

import dataclasses
import inspect
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from numpy.testing import assert_allclose

from povmlab import postproc
from povmlab.hs import OutsideSpanError, Tolerances, coords
from povmlab.povm import Observable, Povm, canonical_dual, spectral_povm
from povmlab.postproc import (
    FEASIBILITY_RESIDUAL,
    MarkovMatrix,
    apply_post_processing,
    blur_for_post_processing,
    find_joint_measurement,
    find_post_processing,
    is_clean,
    is_post_processing_of,
    least_blur,
    t1_identify,
    t2_permute,
    t3_split,
    unbias,
)
from povmlab.qubit import optimal_four_outcome, sigma_pm
from povmlab.standard import (
    pauli_observable,
    pauli_projective,
    projective_povm,
    sic_povm,
    trine_povm,
)

from helpers import (
    convex_union,
    dense,
    dense_rows,
    ill_conditioned_minimal_povm,
    random_povm,
    scipy_linprog,
)
from test_properties import PROPERTY_SETTINGS, lp_cases

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

    @pytest.mark.parametrize("P, Q, lps", [
        (sic_povm(), projective_povm("z"), 0),  # independent, infeasible
        (sic_povm(), t1_identify(sic_povm(), 0, 1), 0),  # independent, feasible
        (convex_union(projective_povm("z"), projective_povm("z"), 0.3),
         projective_povm("x"), 0),  # off the span
        (random_povm(2, 6, np.random.default_rng(8)), projective_povm("z"), 1),
        (random_povm(2, 6, np.random.default_rng(8)),
         t1_identify(random_povm(2, 6, np.random.default_rng(8)), 0, 1), 1),
    ], ids=["indep-infeasible", "indep-feasible", "off-span", "over-infeasible",
            "over-feasible"])
    def test_one_lp_per_search(self, monkeypatch, P, Q, lps):
        calls = []
        original = postproc.linprog

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(postproc, "linprog", counting)
        find_post_processing(Q, P)
        assert len(calls) == lps


def loop_least_blur_dual(a, K):
    """Reference least-blur dual LP, entry by entry: ``(cost, A_eq, A_ub, bounds)``.

    The variables are ``mu_j`` (N per output j, output-major), then
    ``beta``, then ``nu`` (k).  Row ``j * k + c`` of ``A_eq`` is
    ``K[:, c] . mu_j - nu_c = 0``; the one row of ``A_ub`` is
    ``sum_j a_j . mu_j - beta <= -1``.
    """
    n_out, n_in = a.shape
    k = K.shape[1]
    n = n_out * n_in
    cost, bounds = np.zeros(n + 1 + k), np.zeros((n + 1 + k, 2))
    A_eq, A_ub = np.zeros((n_out * k, n + 1 + k)), np.zeros((1, n + 1 + k))
    for j in range(n_out):
        for i in range(n_in):
            cost[j * n_in + i] = 1.0 / n_out
            A_ub[0, j * n_in + i] = a[j, i]
            for c in range(k):
                A_eq[j * k + c, j * n_in + i] = K[i, c]
        for c in range(k):
            A_eq[j * k + c, n + 1 + c] = -1.0
    cost[n], A_ub[0, n] = 1.0, -1.0
    bounds[:, 1] = np.inf
    bounds[n + 1:, 0] = -np.inf
    return cost, A_eq, A_ub, bounds


class TestMarkovLpConstraints:
    """The one LP hands HiGHS exactly the constraints of the loop-built reference."""

    @staticmethod
    def _captured(monkeypatch, call):
        constraints = []
        original = postproc.linprog

        def capturing(*args, **kwargs):
            constraints.append(inspect.signature(original).bind(*args, **kwargs).arguments)
            return original(*args, **kwargs)

        monkeypatch.setattr(postproc, "linprog", capturing)
        call()
        return constraints

    @staticmethod
    def _assert_least_blur_dual(got, P, Q):
        K = P.null_basis
        e = coords(np.eye(P.dim)) / len(Q)
        a = (np.linalg.pinv(P.design_matrix) @ (Q.design_matrix - e[:, None])).T
        cost, A_eq, A_ub, bounds = loop_least_blur_dual(a, K)
        n = a.size
        assert got["start"].dtype == got["index"].dtype == np.int32
        # the inequality row first, then the equality rows
        A = dense(got["start"], got["index"], got["value"], len(got["row_lower"]))
        reference = np.vstack([A_ub, A_eq])
        assert np.array_equal(got["cost"], cost) and np.array_equal(got["bounds"], bounds)
        assert np.array_equal(A[1:], reference[1:]) and np.array_equal(A[0, n:], reference[0, n:])
        assert_allclose(A[0, :n], reference[0, :n], rtol=0.0, atol=1e-12)
        assert np.array_equal(got["row_lower"], np.concatenate([[-np.inf], np.zeros(len(A_eq))]))
        assert np.array_equal(got["row_upper"], np.concatenate([[-1.0], np.zeros(len(A_eq))]))

    def test_post_processing(self, monkeypatch):
        # six qubit outcomes span the four HS directions, leaving a null space of two
        P = random_povm(2, 6, np.random.default_rng(8))
        Q = apply_post_processing(P, random_markov(3, 6, np.random.default_rng(3)))
        (got,) = self._captured(monkeypatch, lambda: find_post_processing(Q, P))
        assert P.null_basis.shape == (6, 2)
        self._assert_least_blur_dual(got, P, Q)

    def test_joint_measurement(self, monkeypatch):
        # the four planar outcomes leave a null space of one, so the least blur
        # of sigma_+ runs one LP
        theta = 0.6
        P = optimal_four_outcome(theta)
        X = Observable(sigma_pm(theta)[0])
        (got,) = self._captured(monkeypatch, lambda: find_joint_measurement(P, [X]))
        assert P.null_basis.shape == (4, 1)
        self._assert_least_blur_dual(got, P, spectral_povm(X))


class TestLinprogSeam:
    """``postproc.linprog`` returns what ``scipy.optimize.linprog`` does, on the fields read."""

    @PROPERTY_SETTINGS
    @given(lp_cases())
    def test_least_blur_optimum_matches_scipy(self, case):
        P, Q, observables, _ = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            lps = TestMarkovLpConstraints._captured(
                monkeypatch, lambda: (find_post_processing(Q, P),
                                      find_joint_measurement(P, observables)))
        for lp in lps:
            ours = postproc.linprog(**lp)
            reference = scipy_linprog(**lp)
            assert ours.success and reference.success
            assert abs(ours.fun - reference.fun) <= 1e-9

    @pytest.mark.parametrize("cost, lp, status", [
        ([1.0, 1.0], dict(A_eq=[[1.0, 1.0]], b_eq=[-1.0]), "Infeasible"),  # x >= 0 sums to -1
        ([-1.0, 1.0], dict(A_ub=[[0.0, 1.0]], b_ub=[1.0]), "Unbounded"),  # x_0 grows freely
    ], ids=["infeasible", "unbounded"])
    def test_failure_carries_the_model_status(self, cost, lp, status):
        res = postproc.linprog(cost, (0.0, np.inf), *dense_rows(**lp))
        assert not res.success
        assert res.message == status

    def test_equality_marginals_take_scipys_sign(self):
        from scipy.optimize import linprog

        # optimum x = (3/4, 0, 1/4) with row duals (1, 3/4); the slack
        # inequality row comes first, and x_1's reduced cost is 1/4 > 0
        lp = dict(A_ub=[[1.0, 0.0, 0.0]], b_ub=[5.0],
                  A_eq=[[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]], b_eq=[1.0, 0.5])
        cost = [1.0, 2.0, 2.5]
        ours = postproc.linprog(cost, (0.0, np.inf), *dense_rows(**lp))
        reference = linprog(cost, **lp, method="highs", options=postproc._LP_OPTIONS)
        assert_allclose(ours.x, [0.75, 0.0, 0.25], rtol=0.0, atol=1e-12)
        assert_allclose(ours.marginals[1:], [1.0, 0.75], rtol=0.0, atol=1e-12)
        assert_allclose(ours.marginals[1:], reference.eqlin.marginals, rtol=0.0, atol=1e-12)
        assert_allclose(ours.marginals[:1], reference.ineqlin.marginals, rtol=0.0, atol=1e-12)


class TestReusedSolver:
    """Each thread's one HiGHS instance carries nothing from one LP to the next."""

    @staticmethod
    def _least_blur():
        # six qubit outcomes leave a null space of two, so the least blur runs an LP
        P = random_povm(2, 6, np.random.default_rng(8))
        return postproc._least_blur(P, projective_povm("z"))

    def test_failed_solves_leave_no_trace(self):
        before = self._least_blur()
        for cost, lp, status in [([1.0, 1.0], dict(A_eq=[[1.0, 1.0]], b_eq=[-1.0]), "Infeasible"),
                                 ([-1.0, 1.0], dict(A_ub=[[0.0, 1.0]], b_ub=[1.0]), "Unbounded")]:
            assert postproc.linprog(cost, (0.0, np.inf), *dense_rows(**lp)).message == status
        after = self._least_blur()
        assert before[0] == after[0]
        assert np.array_equal(before[1], after[1]) and np.array_equal(before[2], after[2])

    def test_rejected_arrays_raise(self):
        # row index 5 of a one-row LP
        start, index = np.array([0, 1, 2], np.int32), np.array([0, 5], np.int32)
        with pytest.raises(ValueError, match="rejected"):
            postproc.linprog([2.0, 2.0], (0.0, np.inf), start, index, np.ones(2), [1.0], [np.inf])

    def test_concurrent_threads_match_sequential(self):
        # every null space is nonempty, and the computational-basis projectors
        # lie in each full-rank span, so every least blur runs an LP
        povms = [random_povm(d, n, np.random.default_rng(seed))
                 for seed, (d, n) in enumerate([(2, 6), (3, 14), (2, 7), (3, 12)])]
        targets = [Povm([np.diag(e) for e in np.eye(P.dim)]) for P in povms]
        sequential = [postproc._least_blur(P, Q) for P, Q in zip(povms, targets)]
        n_threads = (os.cpu_count() or 1) + 2  # more threads than cores
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def solve(t):
            barrier.wait(timeout=60)
            case = [(povms[(t + r) % 4], targets[(t + r) % 4]) for r in range(12)]
            results[t] = [postproc._least_blur(P, Q) for P, Q in case]

        threads = [threading.Thread(target=solve, args=(t,)) for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between the solver's calls
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for t, got in enumerate(results):
            assert got is not None and len(got) == 12
            for r, (lam, m, y) in enumerate(got):
                ref_lam, ref_m, ref_y = sequential[(t + r) % 4]
                assert lam == ref_lam and np.array_equal(m, ref_m) and np.array_equal(y, ref_y)


class TestIsClean:
    @pytest.mark.parametrize(
        "P", [sic_povm(), trine_povm(), projective_povm("y")], ids=["sic", "trine", "proj"]
    )
    def test_rank_one_povms_are_clean(self, P):
        assert is_clean(P)

    def test_trivial_povm_not_clean(self):
        assert not is_clean(Povm([np.eye(2)]))

    def test_noisy_povm_not_clean(self):
        blur = blur_for_post_processing(sic_povm(), projective_povm("z"))
        assert not is_clean(blur.blurred)


class TestBlur:
    def test_projective_from_sic_fixture(self):
        blur = blur_for_post_processing(sic_povm(), projective_povm("z"))
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
        blur = blur_for_post_processing(P, projective_povm("z"))
        SZ = np.diag([1.0, -1.0])
        assert_allclose(blur.blurred.elements[0], (3 * I2 + SZ) / 6.0, atol=1e-12)
        assert_allclose(blur.blurred.elements[1], (3 * I2 - SZ) / 6.0, atol=1e-12)
        realized = apply_post_processing(P, blur.markov)
        for a, b in zip(realized.elements, blur.blurred.elements):
            assert_allclose(a, b, atol=1e-10)

    def test_spectral_target_orders_by_eigenvalue(self):
        blur = blur_for_post_processing(sic_povm(), pauli_projective("z"))
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
        blur = blur_for_post_processing(P, Q)
        assert blur.epsilon_star == pytest.approx(0.0, abs=1e-10)
        assert blur.inflation == pytest.approx(1.0, abs=1e-9)
        assert_allclose(blur.markov.m, m.m, atol=1e-8)

    def test_ill_conditioned_source(self):
        # the least blur's map is clipped and renormalized, so it must still
        # synthesize the blurred target from a badly conditioned source
        P = ill_conditioned_minimal_povm()
        rng = np.random.default_rng(10)
        blur = blur_for_post_processing(P, random_povm(3, 3, rng))
        realized = apply_post_processing(P, blur.markov)
        for a, b in zip(realized.elements, blur.blurred.elements):
            assert_allclose(a, b, atol=FEASIBILITY_RESIDUAL)

    def test_target_outside_span_rejected(self):
        # both projectors of z leave the plane of the trine: the first is named
        with pytest.raises(OutsideSpanError, match=r"^target element 0 lies outside"):
            blur_for_post_processing(trine_povm(), pauli_projective("z"))

    def test_independent_source_runs_no_lp(self, monkeypatch):
        # over linearly independent elements the ratio test is the closed form
        # lam = 1/(1 - M c) of the most negative canonical coefficient c
        def no_lp(*args):
            raise AssertionError("an LP ran")

        monkeypatch.setattr(postproc, "linprog", no_lp)
        rng = np.random.default_rng(31)
        for d in (2, 3):
            P = random_povm(d, d * d, rng)
            assert P.span_rank == len(P)
            Q = random_povm(d, 3, rng)
            blur = blur_for_post_processing(P, Q)
            c = canonical_dual(P).coords.T @ Q.design_matrix
            lam = 1.0 / (1.0 - 3 * min(c.min(), 0.0))
            assert blur.epsilon_star == pytest.approx(1.0 - lam, abs=1e-12)


class TestUnbias:
    @staticmethod
    def _z_blur():
        return blur_for_post_processing(sic_povm(), pauli_projective("z"))

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
        blur = blur_for_post_processing(P, apply_post_processing(P, m))
        with pytest.raises(ValueError, match="spectrum size"):
            unbias(blur, np.full(3, 1.0 / 3.0), observable=pauli_observable("z"))

    def test_unlabeled_target_rejects_observable_path(self):
        SX = np.array([[0.0, 1.0], [1.0, 0.0]])
        Q = Povm([0.5 * (I2 + SX), 0.5 * (I2 - SX)])  # no outcome labels
        blur = blur_for_post_processing(sic_povm(), Q)
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
        blur = blur_for_post_processing(sic_povm(), Q)
        blur = dataclasses.replace(blur, outcome_values=np.array([1e-8, 1.0]))
        observed = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="eigenvalues as labels"):
            unbias(blur, observed, observable=Observable(X))
        loose = Observable(X, tol=Tolerances(lin_solve=1e-7))
        assert unbias(blur, observed, observable=loose) == pytest.approx(0.5, abs=1e-7)


class TestImperfectMeasurement:
    """P measures X imperfectly when it is a post-processing of X's spectral POVM."""

    def test_blurred_spectral_povm_reads_out_observable(self):
        blur = blur_for_post_processing(sic_povm(), pauli_projective("z"))
        assert is_post_processing_of(blur.blurred, spectral_povm(pauli_observable("z")))

    def test_incompatible_axis(self):
        assert not is_post_processing_of(
            projective_povm("x"), spectral_povm(pauli_observable("z"))
        )

    def test_coarse_graining_of_spectral_povm(self):
        noisy = apply_post_processing(
            pauli_projective("y"), MarkovMatrix([[0.9, 0.2], [0.1, 0.8]])
        )
        assert is_post_processing_of(noisy, spectral_povm(pauli_observable("y")))


def assert_blurred_marginals(result, observables, dim):
    """Each marginal of the joint POVM is ``lam X_h + (1 - lam)/s 1`` (1e-12)."""
    G = result.joint.elements.reshape([X.spectrum_size for X in observables] + [dim, dim])
    for axis, (cert, X) in enumerate(zip(result.certificates, observables)):
        others = tuple(b for b in range(len(observables)) if b != axis)
        lam, s = cert.visibility, X.spectrum_size
        blurred = lam * X.projectors + (1.0 - lam) / s * np.eye(dim)
        assert_allclose(G.sum(axis=others), blurred, rtol=0.0, atol=1e-12)


class TestLeastBlur:
    def test_independent_elements_need_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(postproc, "linprog", no_lp)
        # the SIC's z coefficients are (2, 0, 0, 0) and (-1, 1, 1, 1)
        lam, markov = least_blur(sic_povm(), projective_povm("z"))
        assert lam == pytest.approx(1.0 / 3.0, abs=1e-12)
        third = 1.0 / 3.0
        assert_allclose(markov.m, [[1, third, third, third], [0, 2 * third, 2 * third, 2 * third]],
                        atol=1e-12)

    def test_target_off_the_span_needs_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(postproc, "linprog", no_lp)
        lam, markov = least_blur(trine_povm(), projective_povm("z"))
        assert lam == 0.0
        assert_allclose(markov.m, np.full((2, 3), 0.5), rtol=0.0, atol=0.0)

    def test_reachable_target_is_not_blurred(self):
        P = random_povm(2, 6, np.random.default_rng(31))
        m = random_markov(3, 6, np.random.default_rng(32))
        Q = apply_post_processing(P, m)
        lam, markov = least_blur(P, Q)
        assert lam == pytest.approx(1.0, abs=1e-9)
        realized = apply_post_processing(P, markov)
        assert_allclose(realized.elements, Q.elements, rtol=0.0, atol=1e-8)

    def test_blurred_target_is_synthesized(self):
        P = random_povm(3, 12, np.random.default_rng(33))
        Q = Povm(np.eye(3)[:, :, None] * np.eye(3)[:, None, :])  # the qutrit basis
        lam, markov = least_blur(P, Q)
        assert 0.0 < lam < 1.0
        realized = apply_post_processing(P, markov).elements
        assert_allclose(realized, lam * Q.elements + (1.0 - lam) / 3.0 * np.eye(3),
                        rtol=0.0, atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="same space"):
            least_blur(sic_povm(), Povm([np.eye(3)]))


class TestJointMeasurement:
    def test_four_outcome_optimum_is_union_of_axis_projectives(self):
        # at theta = pi/4 the elements are (1/4)(1 +- sx) and (1/4)(1 +- sy):
        # each axis is read from its own pair, the other pair adds uniform noise
        P = optimal_four_outcome(np.pi / 4.0)
        observables = [pauli_observable("x"), pauli_observable("y")]
        result = find_joint_measurement(P, observables)
        assert result.feasible
        for cert in result.certificates:
            assert cert.visibility == pytest.approx(0.5, abs=1e-12)
            assert cert.markov.rows == 2 and cert.markov.cols == 4
        assert len(result.joint) == 4
        assert_blurred_marginals(result, observables, 2)

    def test_four_outcome_optimum_measures_both_rotated_targets(self):
        # the least blurs of the rotated targets saturate Busch's bound
        theta = np.pi / 4.0
        P = optimal_four_outcome(theta)
        plus, minus = sigma_pm(theta)
        observables = [Observable(plus), Observable(minus)]
        result = find_joint_measurement(P, observables)
        assert result.feasible
        for cert in result.certificates:
            assert cert.visibility == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert_blurred_marginals(result, observables, 2)

    def test_projective_certificate_for_wrong_axis_is_trivial(self):
        # sx's projectors lie off the span of the sz projectors: no blur short
        # of the uniform map reaches it
        result = find_joint_measurement(
            pauli_projective("z"), [pauli_observable("x")]
        )
        assert not result.feasible
        (cert,) = result.certificates
        assert cert.visibility == 0.0
        assert_allclose(cert.markov.m, np.full((2, 2), 0.5), rtol=0.0, atol=0.0)
        assert_allclose(result.joint.elements, [0.5 * I2, 0.5 * I2], rtol=0.0, atol=1e-15)

    def test_sic_aligns_nontrivially_with_two_axes(self):
        observables = [pauli_observable("x"), pauli_observable("z")]
        result = find_joint_measurement(sic_povm(), observables)
        assert result.feasible
        lam_x, lam_z = (c.visibility for c in result.certificates)
        # the apex element is proportional to the +z projector, and the x axis
        # sits askew of all four vertices
        assert lam_x == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), abs=1e-12)
        assert lam_z == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert_blurred_marginals(result, observables, 2)

    def test_joint_is_the_product_of_the_maps(self):
        rng = np.random.default_rng(37)
        P = random_povm(3, 12, rng)
        observables = [Observable(random_povm(3, 3, rng).elements[0]) for _ in range(3)]
        result = find_joint_measurement(P, observables)
        m = [cert.markov.m for cert in result.certificates]
        sizes = [X.spectrum_size for X in observables]
        G = result.joint.elements.reshape(sizes + [3, 3])
        for a, b, c in np.ndindex(*sizes):
            expected = sum(m[0][a, i] * m[1][b, i] * m[2][c, i] * P.elements[i]
                           for i in range(len(P)))
            assert_allclose(G[a, b, c], expected, rtol=0.0, atol=1e-14)
        assert_blurred_marginals(result, observables, 3)

    def test_one_svd_of_the_design_matrix(self, monkeypatch):
        # every least blur reads P's cached factors: no SVD per observable
        rng = np.random.default_rng(38)
        P = random_povm(3, 12, rng)
        observables = [Observable(random_povm(3, 2, rng).elements[0]) for _ in range(2)]
        shapes = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert find_joint_measurement(P, observables).feasible
        assert shapes == [P.design_matrix.shape]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            find_joint_measurement(sic_povm(), [Observable(np.diag([0.0, 1.0, 2.0]))])
