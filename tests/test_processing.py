"""Processing functions, statistical errors, and the ensemble-optimal dual."""

import gc

import numpy as np
import pytest

from povmlab.hs import Tolerances, from_coords
from povmlab.postproc import find_post_processing
from povmlab.povm import Povm, canonical_dual
from povmlab.processing import (
    DegenerateMetricWarning,
    Ensemble,
    OutsideSpanError,
    ProcessingFunction,
    ensemble_error,
    metric_diagonal,
    min_error,
    optimal_dual,
    processing_from_dual,
    statistical_error,
)
from povmlab.standard import (
    maximally_mixed_ensemble,
    projective_povm,
    sic_povm,
    six_state_ensemble,
)

from helpers import (
    SX,
    SY,
    SZ,
    ill_conditioned_minimal_povm,
    kernel_state,
    random_ensemble,
    random_hermitian,
    random_povm,
    random_state,
    reference_optimal_dual,
)


def pinv_optimal_dual(P, ensemble):
    """Minimum-weighted-norm dual built directly from the reweighted frame.

    Independent of the production implementation: sharpen the frame
    operator with inverse outcome probabilities and read the duals off
    its pseudoinverse, ``D_i = G^+ |P_i> / pi_ii``.
    """
    pi = metric_diagonal(P, ensemble)
    V = P.elements.reshape(len(P), -1).T  # row-major, independent of hs.coords
    G = (V / pi) @ V.conj().T
    Gp = np.linalg.pinv(G, rcond=1e-10, hermitian=True)
    out = []
    for i, m in enumerate(P.elements):
        out.append((Gp @ m.reshape(-1)).reshape(P.dim, P.dim) / pi[i])
    return np.stack(out)


def reference_min_error(P, ensemble, X):
    """Minimum ensemble error by weighted least squares over every coefficient vector.

    Independent of the production implementation: the coefficients that
    reproduce X are ``c_0 + N z`` with N spanning the null space of the
    design matrix, and ``z`` minimizes ``sum_i pi_i |c_i|^2``.
    """
    pi = metric_diagonal(P, ensemble)
    V = P.elements.reshape(len(P), -1).T  # row-major, independent of hs.coords
    x = np.asarray(X, dtype=complex).reshape(-1)
    c0 = np.linalg.lstsq(V, x, rcond=None)[0]
    _, s, Vh = np.linalg.svd(V)
    N = Vh[int(np.count_nonzero(s > 1e-10 * s[0])):].conj().T
    w = np.sqrt(pi)
    z = np.linalg.lstsq(w[:, None] * N, -w * c0, rcond=None)[0]
    c = c0 + N @ z
    return float(np.dot(pi, np.abs(c) ** 2)) - ensemble.second_moment(X)


class TestEnsemble:
    def test_weights_must_be_a_distribution(self):
        with pytest.raises(ValueError):
            Ensemble([0.7, 0.7], [np.eye(2) / 2] * 2)
        with pytest.raises(ValueError):
            Ensemble([1.5, -0.5], [np.eye(2) / 2] * 2)

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(ValueError, match="weights must be finite"):
            Ensemble([np.nan, 1.0], [np.eye(2) / 2] * 2)

    @pytest.mark.parametrize(
        "states, message",
        [
            ([[[0.5, 0.1], [0.0, 0.5]]], "state 0 is not self-adjoint"),
            ([np.diag([1.5, -0.5])], "state 0 is not positive semidefinite"),
            ([np.diag([0.6, 0.6])], "state 0 does not have unit trace"),
            # one state failing the first and the last check reports the first
            ([[[1.0, 1.0], [0.0, 1.0]]], "state 0 is not self-adjoint"),
            ([np.eye(2) / 2, np.diag([0.7, 0.7])], "state 1 does not have unit trace"),
            # the first bad state wins over an earlier check on a later state
            ([np.diag([1.5, -0.5]), [[0.5, 0.1], [0.0, 0.5]]],
             "state 0 is not positive semidefinite"),
        ],
        ids=["self-adjoint", "psd", "trace", "first-check", "second-state", "first-state"],
    )
    def test_reports_the_first_bad_state_and_its_first_failing_check(self, states, message):
        weights = np.full(len(states), 1.0 / len(states))
        with pytest.raises(ValueError, match=f"^{message}$"):
            Ensemble(weights, states)

    def test_six_state_barycenter_is_maximally_mixed(self):
        E = six_state_ensemble()
        assert np.allclose(E.barycenter, np.eye(2) / 2, atol=1e-12)

    def test_six_state_second_moment_of_pauli(self):
        # only the two eigenstates of the measured axis contribute 1 each
        E = six_state_ensemble()
        assert E.second_moment(SZ) == pytest.approx(1 / 3)
        assert E.second_moment(SX) == pytest.approx(1 / 3)


class TestProcessingFunction:
    def test_sic_sigma_z_coefficients(self):
        # tetrahedral geometry: the north-pole outcome carries weight 3,
        # the other three carry -1
        P = sic_povm()
        c = processing_from_dual(canonical_dual(P), SZ)
        assert np.allclose(c.coefficients, [3.0, -1.0, -1.0, -1.0], atol=1e-10)

    def test_estimate_reproduces_expectation(self):
        rng = np.random.default_rng(1)
        P = random_povm(2, 4, rng)
        D = canonical_dual(P)
        X = random_hermitian(2, rng)
        c = processing_from_dual(D, X)
        for _ in range(5):
            rho = random_state(2, rng)
            assert np.real(c.coefficients @ P.probabilities(rho)) == pytest.approx(
                np.real(np.trace(rho @ X)), abs=1e-9
            )

    def test_outside_span_raises(self):
        P = projective_povm("z")
        with pytest.raises(OutsideSpanError):
            processing_from_dual(canonical_dual(P), SX)

    def test_coefficient_vector_shape_checked(self):
        with pytest.raises(ValueError):
            ProcessingFunction(target=SZ, coefficients=np.ones((2, 2)))


class TestStatisticalError:
    def test_projective_on_eigenstate_is_noiseless(self):
        P = projective_povm("z")
        c = processing_from_dual(canonical_dual(P), SZ)
        assert statistical_error(P, c, np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_projective_on_mixed_state(self):
        P = projective_povm("z")
        c = processing_from_dual(canonical_dual(P), SZ)
        assert statistical_error(P, c, np.eye(2) / 2) == pytest.approx(1.0)

    def test_sic_pays_for_tomographic_coverage(self):
        # coefficients (3, -1, -1, -1) at uniform outcome probabilities
        P = sic_povm()
        c = processing_from_dual(canonical_dual(P), SZ)
        assert statistical_error(P, c, np.eye(2) / 2) == pytest.approx(3.0)

    def test_non_self_adjoint_target_subtracts_the_modulus(self):
        # <X> = (0.3 - 0.6i)/2 for X = |0><1|: the variance of the complex
        # estimate is sum_i |c_i|^2 p_i = 3/2 less |<X>|^2 = 0.1125
        rho = (np.eye(2) + 0.3 * SX + 0.6 * SY) / 2
        c = processing_from_dual(canonical_dual(sic_povm()), np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert statistical_error(sic_povm(), c, rho) == pytest.approx(1.3875, abs=1e-12)


class TestEnsembleError:
    def test_projective_six_state(self):
        P = projective_povm("z")
        c = processing_from_dual(canonical_dual(P), SZ)
        assert ensemble_error(P, c, six_state_ensemble()) == pytest.approx(2 / 3)

    def test_sic_six_state(self):
        P = sic_povm()
        c = processing_from_dual(canonical_dual(P), SZ)
        assert ensemble_error(P, c, six_state_ensemble()) == pytest.approx(8 / 3)

    def test_mean_of_pointwise_errors(self):
        rng = np.random.default_rng(2)
        P = random_povm(2, 5, rng)
        E = random_ensemble(2, 3, rng)
        X = random_hermitian(2, rng)
        c = processing_from_dual(canonical_dual(P), X)
        pointwise = sum(
            q * statistical_error(P, c, rho) for q, rho in zip(E.weights, E.states)
        )
        assert ensemble_error(P, c, E) == pytest.approx(pointwise, abs=1e-9)

    def test_non_self_adjoint_target_is_the_mean_variance(self):
        # each state's error is the variance E|c|^2 - |E c|^2 of the complex
        # estimate over its outcome distribution, and the ensemble error their mean
        rng = np.random.default_rng(4)
        P = random_povm(3, 12, rng)
        E = random_ensemble(3, 4, rng)
        X = random_hermitian(3, rng) + 1j * random_hermitian(3, rng)
        c = processing_from_dual(canonical_dual(P), X)
        variances = []
        for rho in E.states:
            p = P.probabilities(rho)
            variance = np.dot(np.abs(c.coefficients) ** 2, p) - abs(np.dot(c.coefficients, p)) ** 2
            assert statistical_error(P, c, rho) == pytest.approx(variance, abs=1e-12)
            variances.append(variance)
        assert ensemble_error(P, c, E) == pytest.approx(np.dot(E.weights, variances), abs=1e-12)


class TestOptimalDual:
    def test_independent_elements_reduce_to_canonical(self):
        P = sic_povm()
        D = optimal_dual(P, six_state_ensemble())
        C = canonical_dual(P)
        assert np.allclose(D.elements, C.elements, atol=1e-9)

    def test_matches_reference_construction(self):
        rng = np.random.default_rng(3)
        for d, n in [(2, 6), (3, 7), (2, 8)]:
            P = random_povm(d, n, rng)
            E = random_ensemble(d, 3, rng)
            D = optimal_dual(P, E)
            ref = pinv_optimal_dual(P, E)
            assert np.max(np.abs(D.elements - ref)) < 1e-8

    def test_resolution_traces_and_minnorm(self):
        rng = np.random.default_rng(4)
        P = random_povm(2, 7, rng)
        E = random_ensemble(2, 4, rng)
        D = optimal_dual(P, E)
        assert D.resolution_residual() < 1e-9
        assert np.allclose([np.trace(m) for m in D.elements], 1.0, atol=1e-9)
        pi = metric_diagonal(P, E)
        C = np.einsum("iab,jba->ij", np.conj(np.transpose(D.elements, (0, 2, 1))), P.elements)
        K = pi[:, None] * C
        assert np.max(np.abs(K - K.conj().T)) < 1e-9

    def test_elements_self_adjoint(self):
        rng = np.random.default_rng(5)
        P = random_povm(3, 10, rng)
        E = random_ensemble(3, 3, rng)
        D = optimal_dual(P, E)
        assert np.max(np.abs(D.elements - np.conj(np.transpose(D.elements, (0, 2, 1))))) < 1e-9

    def test_improves_on_canonical_for_dependent_frames(self):
        rng = np.random.default_rng(6)
        improved = 0
        for _ in range(10):
            P = random_povm(2, 6, rng)
            E = random_ensemble(2, 3, rng)
            X = random_hermitian(2, rng)
            e_can = ensemble_error(P, processing_from_dual(canonical_dual(P), X), E)
            e_opt = ensemble_error(P, processing_from_dual(optimal_dual(P, E), X), E)
            assert e_opt <= e_can + 1e-9
            if e_opt < e_can - 1e-6:
                improved += 1
        assert improved > 0

    def test_cached_per_ensemble_at_own_tolerance(self):
        rng = np.random.default_rng(12)
        P = random_povm(2, 6, rng)
        E = random_ensemble(2, 3, rng)
        coarse = Povm(P.elements, tol=Tolerances(eig_zero=1e-8))
        optimal_dual(coarse, E)
        assert len(P.by_ensemble) == 0 and len(coarse.by_ensemble) == 1
        D = optimal_dual(P, E)
        assert len(P.by_ensemble) == 1
        assert np.array_equal(optimal_dual(P, E).elements, D.elements)
        del E
        gc.collect()
        assert len(P.by_ensemble) == 0

    def test_probabilities_cached_before_the_duals(self):
        rng = np.random.default_rng(13)
        P = random_povm(3, 12, rng)
        E = random_ensemble(3, 2, rng)
        c = processing_from_dual(canonical_dual(P), random_hermitian(3, rng))
        before = ensemble_error(P, c, E)
        pi = metric_diagonal(P, E)
        duals, cached = P.by_ensemble[E]
        assert duals is None and cached is pi and not pi.flags.writeable
        assert metric_diagonal(P, E) is pi
        optimal_dual(P, E)
        assert P.by_ensemble[E][1] is pi and metric_diagonal(P, E) is pi
        assert ensemble_error(P, c, E) == before
        # a POVM without the cache computes the same bits
        assert ensemble_error(Povm(P.elements), c, E) == before

    def test_min_error_computes_the_probabilities_once(self, monkeypatch):
        rng = np.random.default_rng(14)
        P = random_povm(3, 12, rng)
        E = random_ensemble(3, 2, rng)
        calls = []
        probabilities = P.probabilities
        monkeypatch.setattr(P, "probabilities", lambda rho: calls.append(rho) or probabilities(rho))
        for _ in range(3):
            X = P.svd[0] @ rng.normal(size=P.span_rank)
            c = processing_from_dual(optimal_dual(P, E), from_coords(X))
            min_error(P, E, from_coords(X))
            ensemble_error(P, c, E)
        assert len(calls) == 1

    def test_ill_conditioned_frame(self):
        P = ill_conditioned_minimal_povm()
        D = optimal_dual(P, random_ensemble(3, 3, np.random.default_rng(9)))
        assert D.resolution_residual() <= P.tol.lin_solve
        traces = np.einsum("ikk->i", D.elements)
        assert np.max(np.abs(traces - 1.0)) <= P.tol.lin_solve

    def test_barely_dead_outcome_split_in_two(self):
        # outcomes 0 and 1 halve one rank-one element and have probability
        # 1e-11, under the eig_zero cutoff: they are dead, weightless in the
        # live optimum, and the null direction between them moves only them
        rng = np.random.default_rng(21)
        m = random_povm(2, 5, rng, rank_one=True).elements
        P = Povm(np.concatenate([[0.5 * m[0], 0.5 * m[0]], m[1:]]))
        eps = 4e-11 / np.trace(m[0]).real
        E = Ensemble([1.0], [(1.0 - eps) * kernel_state(m[0]) + 0.5 * eps * np.eye(2)])
        pi = metric_diagonal(P, E)
        assert np.allclose(pi[:2], 1e-11, rtol=1e-6)
        with pytest.warns(DegenerateMetricWarning, match="2 outcome"):
            D = optimal_dual(P, E)
        reference = reference_optimal_dual(P, E)
        assert np.max(np.abs(D.coords - reference)) <= 1e-12 * np.max(np.abs(reference))
        assert np.max(np.abs(D.coords[:, 0] - D.coords[:, 1])) <= 1e-12 * np.max(np.abs(reference))

    def test_degenerate_metric_warns(self):
        P = projective_povm("z")
        dead_end = Ensemble([1.0], [np.diag([1.0, 0.0])])
        with pytest.warns(DegenerateMetricWarning):
            optimal_dual(P, dead_end)


class TestMinError:
    def test_sic_sigma_z_six_state(self):
        assert min_error(sic_povm(), six_state_ensemble(), SZ) == pytest.approx(8 / 3)

    def test_projective_sigma_z_six_state(self):
        assert min_error(projective_povm("z"), six_state_ensemble(), SZ) == pytest.approx(2 / 3)

    def test_equals_ensemble_error_of_optimal_dual(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            P = random_povm(2, 5, rng)
            E = random_ensemble(2, 3, rng)
            X = random_hermitian(2, rng)
            c = processing_from_dual(optimal_dual(P, E), X)
            assert min_error(P, E, X) == pytest.approx(ensemble_error(P, c, E), abs=1e-9)

    def test_zero_probability_outcome_keeps_optimal_dual_error(self):
        # nine linearly independent rank-one elements: the coefficients are
        # unique, so the optimal dual's error is the only achievable value
        rng = np.random.default_rng(0)
        P = random_povm(3, 9, rng, rank_one=True)
        assert P.span_rank == 9
        E = Ensemble([1.0], [kernel_state(P.elements[0])])
        X = random_hermitian(3, rng, scale=0.1)
        with pytest.warns(DegenerateMetricWarning):
            c = processing_from_dual(optimal_dual(P, E), X)
        with pytest.warns(DegenerateMetricWarning):
            value = min_error(P, E, X)
        assert value == pytest.approx(ensemble_error(P, c, E), abs=1e-9)

    def test_zero_probability_outcome_of_dependent_elements_is_free(self):
        # seven rank-one qubit elements are dependent: the dead outcome's
        # coefficient costs nothing, so pinning it to its canonical value
        # (2.443 here) misses the minimum
        P = random_povm(2, 7, np.random.default_rng(0), rank_one=True)
        E = Ensemble([1.0], [kernel_state(P.elements[0])])
        X = SX + 0.5 * SZ
        with pytest.warns(DegenerateMetricWarning, match="cost nothing"):
            D = optimal_dual(P, E)
        with pytest.warns(DegenerateMetricWarning):
            value = min_error(P, E, X)
        assert D.resolution_residual() <= P.tol.lin_solve
        assert value == pytest.approx(ensemble_error(P, processing_from_dual(D, X), E), abs=1e-12)
        assert value == pytest.approx(reference_min_error(P, E, X), abs=1e-9)
        assert value == pytest.approx(1.2300846816697, abs=1e-9)

    def test_outside_span_raises(self):
        with pytest.raises(OutsideSpanError):
            min_error(projective_povm("z"), six_state_ensemble(), SX)

    def test_target_dimension_is_checked_first(self):
        P = sic_povm()
        message = r"^target dimension 3 != POVM dimension 2$"
        with pytest.raises(ValueError, match=message):
            min_error(P, six_state_ensemble(), np.eye(3))
        with pytest.raises(ValueError, match=message):
            processing_from_dual(canonical_dual(P), np.eye(3))

    def test_single_state_ensemble_matches_pointwise_error(self):
        rng = np.random.default_rng(8)
        P = random_povm(2, 4, rng)
        rho = random_state(2, rng)
        E = Ensemble([1.0], [rho])
        X = random_hermitian(2, rng)
        c = processing_from_dual(optimal_dual(P, E), X)
        assert min_error(P, E, X) == pytest.approx(statistical_error(P, c, rho), abs=1e-9)

    def test_maximally_mixed_preset(self):
        # delta^2 at I/2 for the tetrahedral measurement of sigma_z
        assert min_error(sic_povm(), maximally_mixed_ensemble(2), SZ) == pytest.approx(3.0)


def test_one_svd_of_the_design_matrix_serves_every_dual(monkeypatch):
    # duals, min_error and the post-processing search all read the SVD
    # that P caches, so a fresh P decomposes its design matrix once
    rng = np.random.default_rng(13)
    P = random_povm(3, 12, rng)
    E = random_ensemble(3, 3, rng)
    markov = rng.dirichlet(np.ones(4), size=len(P)).T
    Q = Povm(np.tensordot(markov, P.elements, axes=(1, 0)))
    targets = [random_hermitian(3, rng) for _ in range(3)]
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    canonical_dual(P)
    optimal_dual(P, E)
    for X in targets:
        min_error(P, E, X)
    assert find_post_processing(Q, P).feasible
    assert shapes == [P.design_matrix.shape]


def test_dead_outcomes_take_no_full_svd(monkeypatch):
    # seven rank-one qubit elements, one dead: the dead column is factored
    # by a thin truncated SVD and its left factor completed by QR, so every
    # SVD is thin; a full one of the 1 x 4 dead block would form a 4 x 4 factor
    P = random_povm(2, 7, np.random.default_rng(0), rank_one=True)
    E = Ensemble([1.0], [kernel_state(P.elements[0])])
    calls = []
    svd = np.linalg.svd

    def recorded(a, full_matrices=True, *args, **kwargs):
        calls.append((np.shape(a), full_matrices))
        return svd(a, full_matrices, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    with pytest.warns(DegenerateMetricWarning, match="1 outcome"):
        D = optimal_dual(P, E)
    assert calls == [(P.design_matrix.shape, False), ((P.span_rank, 1), False)]
    reference = reference_optimal_dual(P, E)
    assert np.max(np.abs(D.coords - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_duals_do_not_form_the_null_basis():
    # the null basis is N x (N - span_rank): at N = 400 qubit outcomes it
    # would be about 100 times the size of the duals, so they are computed
    # in the span
    rng = np.random.default_rng(14)
    P = random_povm(2, 400, rng)
    E = random_ensemble(2, 3, rng)
    D = optimal_dual(P, E)
    min_error(P, E, SX)
    assert D.resolution_residual() <= P.tol.lin_solve
    assert "null_basis" not in vars(P)
