"""POVM validation, frame operators, dual frames, informational completeness."""

import numpy as np
import pytest

from povmlab.abspace import ab_space
from povmlab.hs import Tolerances, coords
from povmlab.povm import (
    NotCompleteError,
    NotPositiveError,
    Observable,
    Povm,
    ZeroElementWarning,
    alternate_dual,
    canonical_dual,
    is_infocomplete,
    is_r_infocomplete,
    povm_report,
    spectral_povm,
    symmetrize_dual,
)
from povmlab.processing import optimal_dual
from povmlab.standard import TETRAHEDRON, projective_povm, sic_povm, trine_povm

from helpers import (
    SX,
    SY,
    SZ,
    ill_conditioned_minimal_povm,
    random_ensemble,
    random_hermitian,
    random_povm,
    random_state,
)


class TestValidation:
    def test_projective_is_valid(self):
        P = Povm(projective_povm("z").elements)
        assert len(P) == 2
        assert P.dim == 2

    def test_non_positive_element_raises_with_index(self):
        bad = [np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])]
        with pytest.raises(NotPositiveError) as exc:
            Povm(bad)
        assert exc.value.index == 1
        assert exc.value.min_eigenvalue == pytest.approx(-0.5)

    def test_incomplete_raises_with_residual(self):
        with pytest.raises(NotCompleteError) as exc:
            Povm([np.diag([0.5, 0.5])])
        assert exc.value.residual == pytest.approx(np.sqrt(0.5))

    def test_zero_elements_dropped_with_warning(self):
        elements = [np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([0.0, 1.0])]
        with pytest.warns(ZeroElementWarning):
            P = Povm(elements)
        assert len(P) == 2

    def test_labels_follow_elements(self):
        P = sic_povm()
        assert P.labels == [0, 1, 2, 3]

    def test_probabilities_are_born_values(self):
        rng = np.random.default_rng(0)
        P = sic_povm()
        rho = random_state(2, rng)
        probs = P.probabilities(rho)
        direct = [np.real(np.trace(rho @ m)) for m in P.elements]
        assert np.allclose(probs, direct)
        assert probs.sum() == pytest.approx(1.0)

    def test_report_and_constructor_agree_with_loop_reference(self):
        rng = np.random.default_rng(12)
        elements = np.array(random_povm(3, 7, rng).elements)
        elements[2, 0, 1] += 0.3  # not self-adjoint
        elements[5] -= 0.4 * np.eye(3)  # most negative
        elements[6] -= 0.2 * np.eye(3)
        with pytest.raises(ValueError, match="element 2 is not self-adjoint"):
            Povm(elements)
        report = povm_report(list(elements) + [np.eye(2)])
        assert [(i["index"], i["problem"]) for i in report["issues"]] == [
            (2, "not self-adjoint"), (5, "not positive"), (6, "not positive"),
            (7, "dimension mismatch"),
        ]
        m = elements[2]
        assert report["issues"][0]["deviation"] == pytest.approx(
            np.linalg.norm(m - m.conj().T), rel=1e-15
        )
        lowest = [np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] for m in elements]
        assert report["issues"][1]["min_eigenvalue"] == lowest[5]
        assert report["issues"][2]["min_eigenvalue"] == lowest[6]
        # self-adjoint now, element 2 is negative too, and it comes before
        # the more negative element 5: the first offending element is named
        elements[2] = 0.5 * (elements[2] + elements[2].conj().T)
        m = elements[2]
        with pytest.raises(NotPositiveError) as exc:
            Povm(elements)
        assert exc.value.index == 2
        assert exc.value.min_eigenvalue == np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]
        assert lowest[5] < exc.value.min_eigenvalue < 0.0

    def test_errors_name_the_input_index_past_dropped_zeros(self):
        elements = [np.zeros((2, 2)), np.diag([-0.5, 1.0]), np.diag([1.5, 0.0])]
        with pytest.warns(ZeroElementWarning), pytest.raises(NotPositiveError) as exc:
            Povm(elements)
        assert exc.value.index == 1
        assert [i["index"] for i in povm_report(elements)["issues"]] == [0, 1]
        elements[1] = np.array([[0.0, 0.2], [0.0, 1.0]])
        with pytest.warns(ZeroElementWarning), pytest.raises(
                ValueError, match="element 1 is not self-adjoint"):
            Povm(elements)

    def test_report_takes_the_dimension_most_elements_share(self):
        report = povm_report([np.eye(3), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert report["dim"] == 2
        assert [(i["index"], i["problem"]) for i in report["issues"]] == [
            (0, "dimension mismatch")]
        assert report["completeness_residual"] == 0.0
        assert not report["valid"]
        # one element of each size: the earliest sets the dimension
        report = povm_report([np.diag([1.0, 0.0]), np.eye(3)])
        assert report["dim"] == 2
        assert [(i["index"], i["problem"]) for i in report["issues"]] == [
            (1, "dimension mismatch")]

    def test_report_flags_problems(self):
        report = povm_report([np.diag([1.0, 0.5]), np.diag([0.0, 0.2])])
        assert not report["valid"]
        assert report["completeness_residual"] > 0.1
        report = povm_report(projective_povm("x").elements)
        assert report["valid"]
        assert report["issues"] == []


class TestFrameOperator:
    def test_sic_frame_eigenvalues(self):
        # symmetric tetrahedral frame: one eigenvalue 1/2 on the identity
        # direction, triply degenerate 1/6 on the traceless directions
        # the eigenvalues of F = V V^dag are the squared singular values of V
        vals = np.sort(sic_povm().svd[1] ** 2)
        assert np.allclose(vals, [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-12)

    def test_frame_operator_is_gram_of_design_matrix(self):
        rng = np.random.default_rng(1)
        P = random_povm(3, 5, rng)
        V = P.design_matrix
        F = sum(np.outer(coords(m), coords(m).conj()) for m in P.elements)
        assert np.allclose(F, V @ V.conj().T)


    def test_cached_factors_are_read_only(self):
        P = random_povm(3, 12, np.random.default_rng(7))
        for a in (P.design_matrix, *P.svd, P.canonical_coords, P.null_basis):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            P.svd[0][0, 0] = 1.0
        # the dual frame holds its own copy of the cached coordinates
        D = canonical_dual(P)
        assert D.coords is not P.canonical_coords
        U, s, Vh = P.svd
        assert D.coords.tobytes() == ((U / s) @ Vh).tobytes()

    def test_frame_quantities_are_real(self):
        # valid POVMs and observables are self-adjoint, so their coordinates,
        # the spectral factors and the cached optimal duals are all float64
        rng = np.random.default_rng(6)
        for P in (sic_povm(), random_povm(3, 7, rng), random_povm(3, 14, rng, rank_one=True)):
            arrays = (P.design_matrix, *P.svd, P.span_projector)
            assert all(a.dtype == np.float64 for a in arrays)
            E = random_ensemble(P.dim, 3, rng)
            optimal_dual(P, E)
            duals, pi = P.by_ensemble[E]
            assert duals.dtype == np.float64 and pi.dtype == np.float64
        S = ab_space(Observable(random_hermitian(3, rng)), Observable(random_hermitian(3, rng)))
        assert S.columns.dtype == np.float64


class TestCanonicalDual:
    def test_sic_dual_closed_form(self):
        P = sic_povm()
        D = canonical_dual(P)
        for dual, element in zip(D.elements, P.elements):
            assert np.allclose(dual, 6.0 * element - np.eye(2), atol=1e-10)

    def test_resolution_of_identity(self):
        rng = np.random.default_rng(2)
        for d, n in [(2, 4), (3, 9), (2, 6), (4, 5)]:
            P = random_povm(d, n, rng)
            D = canonical_dual(P)
            assert D.resolution_residual() < 1e-9

    def test_dual_traces_are_one_for_independent_elements(self):
        # trace-one duals follow from the reconstruction identity whenever
        # the elements are linearly independent; dependent frames spread
        # the unit trace across the dependency instead
        rng = np.random.default_rng(3)
        P = random_povm(2, 4, rng)
        assert P.span_rank == 4
        D = canonical_dual(P)
        assert np.allclose([np.trace(m) for m in D.elements], 1.0, atol=1e-9)

    def test_ill_conditioned_frame_keeps_every_direction(self):
        # cond(V) ~ 8e5: cutting the eigenvalues of F instead of the singular
        # values of V drops a direction and leaves a residual of about 1
        P = ill_conditioned_minimal_povm()
        assert np.linalg.cond(P.design_matrix) > 1e5
        assert P.span_rank == 9
        D = canonical_dual(P)
        assert D.resolution_residual() <= P.tol.lin_solve
        traces = np.einsum("ikk->i", D.elements)
        assert np.max(np.abs(traces - 1.0)) <= P.tol.lin_solve

    def test_reconstruction_from_probabilities(self):
        rng = np.random.default_rng(4)
        P = random_povm(2, 4, rng)
        D = canonical_dual(P)
        rho = random_state(2, rng)
        probs = P.probabilities(rho)
        rebuilt = np.tensordot(probs, D.elements, axes=(0, 0))
        assert np.allclose(rebuilt, rho, atol=1e-9)


class TestAlternateDual:
    def test_independent_elements_collapse_to_canonical(self):
        # with linearly independent elements the cross Gram matrix is the
        # identity and every admissible shift cancels exactly
        rng = np.random.default_rng(5)
        P = sic_povm()
        D = canonical_dual(P)
        Y = [random_hermitian(2, rng) for _ in range(4)]
        Z = alternate_dual(P, D, Y)
        assert np.allclose(Z.elements, D.elements, atol=1e-10)

    def test_dependent_frame_admits_distinct_duals(self):
        rng = np.random.default_rng(6)
        P = random_povm(2, 6, rng)  # 6 > 4 = d^2, necessarily dependent
        D = canonical_dual(P)
        Y = [random_hermitian(2, rng) for _ in range(6)]
        Z = alternate_dual(P, D, Y)
        assert Z.resolution_residual() < 1e-9
        assert not np.allclose(Z.elements, D.elements, atol=1e-6)

    def test_symmetrize_keeps_resolution(self):
        rng = np.random.default_rng(7)
        P = random_povm(2, 6, rng)
        D = canonical_dual(P)
        Y = [random_hermitian(2, rng) for _ in range(6)]
        Z = symmetrize_dual(alternate_dual(P, D, Y))
        assert Z.resolution_residual() < 1e-9
        for m in Z.elements:
            assert np.allclose(m, m.conj().T)


class TestInfocompleteness:
    def test_sic_is_infocomplete(self):
        assert is_infocomplete(sic_povm())
        assert sic_povm().span_rank == 4

    def test_projective_is_not(self):
        P = projective_povm("z")
        assert not is_infocomplete(P)
        assert P.span_rank == 2

    def test_other_tolerance_cuts_without_the_cache(self):
        # the smallest singular value of V is about 1e-6 of the largest
        P = ill_conditioned_minimal_povm()
        coarse = Povm(P.elements, tol=Tolerances(eig_zero=1e-4))
        assert not is_infocomplete(coarse) and coarse.span_rank == 8
        assert is_infocomplete(P) and P.span_rank == 9

    def test_relative_completeness(self):
        P = projective_povm("z")
        assert is_r_infocomplete(P, [SZ])
        assert is_r_infocomplete(P, [np.eye(2), SZ])
        assert not is_r_infocomplete(P, [SX])

    def test_trine_spans_its_plane(self):
        P = trine_povm()
        assert P.span_rank == 3
        assert is_r_infocomplete(P, [SX, SY])
        assert not is_r_infocomplete(P, [SZ])


class TestObservable:
    def test_rejects_non_selfadjoint(self):
        with pytest.raises(ValueError):
            Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_clusters_nearly_degenerate_eigenvalues(self):
        X = Observable(np.diag([1.0, 1.0 + 1e-12, 3.0]))
        assert X.spectrum_size == 2
        assert np.allclose(X.eigenvalues, [1.0, 3.0], atol=1e-9)

    def test_projectors_resolve_identity(self):
        rng = np.random.default_rng(9)
        X = Observable(random_hermitian(4, rng))
        assert np.allclose(sum(X.projectors), np.eye(4), atol=1e-10)
        rebuilt = sum(v * p for v, p in zip(X.eigenvalues, X.projectors))
        assert np.allclose(rebuilt, X.operator, atol=1e-9)

    def test_spectral_povm_labels_are_eigenvalues(self):
        P = spectral_povm(Observable(SZ))
        assert P.labels == [-1.0, 1.0]
        assert np.allclose(P.elements[0], np.diag([0.0, 1.0]))


class TestStandardForms:
    def test_tetrahedron_angles(self):
        G = TETRAHEDRON @ TETRAHEDRON.T
        assert np.allclose(np.diag(G), 1.0)
        off = G[~np.eye(4, dtype=bool)]
        assert np.allclose(off, -1 / 3, atol=1e-12)

    def test_sic_pairwise_traces(self):
        P = sic_povm()
        for i in range(4):
            for j in range(4):
                expected = 1 / 4 if i == j else 1 / 12
                assert np.trace(P[i] @ P[j]) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_projective_axes(self, axis):
        P = projective_povm(axis)
        sigma = {"x": SX, "y": SY, "z": SZ}[axis]
        assert np.allclose(P.elements[0] - P.elements[1], sigma)
