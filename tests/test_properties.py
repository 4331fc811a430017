"""The paper's identities stated as invariants over seeded random inputs.

Each example draws a seed, a dimension d <= 4 and an outcome count on both
sides of d^2, then builds the POVM, ensemble and target with the helpers'
constructions.  ``derandomize`` keeps the examples the same on every run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmlab.montecarlo import sample, sample_range
from povmlab.postproc import blur_for_post_processing, unbias
from povmlab.povm import alternate_dual, canonical_dual
from povmlab.processing import (
    Ensemble,
    ensemble_error,
    min_error,
    optimal_dual,
    processing_from_dual,
)

from helpers import kernel_state, random_ensemble, random_hermitian, random_povm, random_state

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def frame_cases(draw):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(d, d * d + 2 * d))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P = random_povm(d, n, rng)
    E = random_ensemble(d, int(rng.integers(1, 5)), rng)
    v = P.span_projector @ random_hermitian(d, rng).reshape(-1)
    X = v.reshape(d, d)
    return P, E, 0.5 * (X + X.conj().T)


@PROPERTY_SETTINGS
@given(frame_cases())
def test_duals_resolve_span_projector(case):
    P, E, _ = case
    for D in (canonical_dual(P), optimal_dual(P, E)):
        assert D.resolution_residual() <= P.tol.lin_solve


@PROPERTY_SETTINGS
@given(frame_cases())
def test_duals_self_adjoint_with_unit_trace(case):
    P, E, _ = case
    canonical, optimal = canonical_dual(P), optimal_dual(P, E)
    for D in (canonical, optimal):
        adjoint = np.conj(np.transpose(D.elements, (0, 2, 1)))
        assert np.max(np.abs(D.elements - adjoint)) <= P.tol.lin_solve
    # Tr D_i - 1 lies in the kernel of V: zero for the optimal dual, and
    # for the canonical dual when the elements are linearly independent
    traced = [optimal] + ([canonical] if P.span_rank == len(P) else [])
    for D in traced:
        assert np.max(np.abs(np.einsum("ikk->i", D.elements) - 1.0)) <= P.tol.lin_solve


@PROPERTY_SETTINGS
@given(frame_cases())
def test_min_error_is_optimal_dual_error_and_beats_canonical(case):
    P, E, X = case
    value = min_error(P, E, X)
    optimal = ensemble_error(P, processing_from_dual(optimal_dual(P, E), X), E)
    canonical = ensemble_error(P, processing_from_dual(canonical_dual(P), X), E)
    assert abs(value - optimal) <= 1e-9 * max(1.0, abs(optimal))
    assert value <= canonical + 1e-9 * max(1.0, abs(canonical))


@st.composite
def dead_outcome_cases(draw):
    """Dependent rank-one elements, and a pure state that never triggers outcome 0."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(d * d + 1, d * d + 2 * d))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P = random_povm(d, n, rng, rank_one=True)
    return P, Ensemble([1.0], [kernel_state(P.elements[0])]), random_hermitian(d, rng)


@pytest.mark.filterwarnings("ignore::povmlab.processing.DegenerateMetricWarning")
@PROPERTY_SETTINGS
@given(st.one_of(frame_cases(), dead_outcome_cases()),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-4, 1e-2, 1.0]))
def test_no_alternate_dual_beats_min_error(case, seed, scale):
    # shifts of the optimal dual reach every dual, so small ones probe each
    # direction in which it could fail to be minimal
    P, E, X = case
    rng = np.random.default_rng(seed)
    Y = [random_hermitian(P.dim, rng, scale) for _ in range(len(P))]
    shifted = alternate_dual(P, optimal_dual(P, E), Y)
    value = min_error(P, E, X)
    assert ensemble_error(P, processing_from_dual(shifted, X), E) >= value - 1e-9 * max(1.0, abs(value))


@PROPERTY_SETTINGS
@given(st.integers(2, 3), st.integers(2, 8), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 3000), st.lists(st.floats(0.0, 1.0), max_size=4))
def test_sample_counts_do_not_depend_on_the_split(d, n, seed, n_ex, cuts):
    rng = np.random.default_rng(seed)
    P, rho = random_povm(d, n, rng), random_state(d, rng)
    edges = [0] + sorted(int(c * n_ex) for c in cuts) + [n_ex]
    pieces = sum(sample_range(P, rho, a, b, seed) for a, b in zip(edges, edges[1:]))
    assert np.array_equal(pieces, sample(P, rho, n_ex, seed).counts)


@PROPERTY_SETTINGS
@given(st.integers(2, 3), st.integers(0, 2 ** 32 - 1), st.integers(2, 4))
def test_blur_then_unbias_recovers_target_probabilities(d, seed, m):
    rng = np.random.default_rng(seed)
    P = random_povm(d, d * d + int(rng.integers(0, d + 1)), rng)
    Q = random_povm(d, m, rng)
    blur = blur_for_post_processing(P, Q, random_ensemble(d, 3, rng))
    rho = random_state(d, rng)
    recovered = unbias(blur, blur.markov.m @ P.probabilities(rho))
    assert np.allclose(recovered, Q.probabilities(rho), rtol=0.0, atol=1e-8)
