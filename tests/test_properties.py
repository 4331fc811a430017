"""The paper's identities stated as invariants over seeded random inputs.

Each example draws a seed, a dimension d <= 4 and an outcome count on both
sides of d^2, then builds the POVM, ensemble and target with the helpers'
constructions.  ``derandomize`` keeps the examples the same on every run.
"""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from povmlab import montecarlo, postproc
from povmlab.abspace import (
    ab_space,
    independent_powers,
    is_ab_infocomplete,
    is_minimal_ab_infocomplete,
)
from povmlab.hs import DEFAULT_TOL, coords, from_coords
from povmlab.montecarlo import sample, sample_range
from povmlab.postproc import (
    FEASIBILITY_RESIDUAL,
    MarkovMatrix,
    apply_post_processing,
    blur_for_post_processing,
    find_joint_measurement,
    find_post_processing,
    least_blur,
    t2_permute,
    t3_split,
    unbias,
)
from povmlab.povm import (
    NotCompleteError,
    NotPositiveError,
    Observable,
    Povm,
    ZeroElementWarning,
    alternate_dual,
    canonical_dual,
    is_r_infocomplete,
    povm_report,
    spectral_povm,
)
from povmlab.processing import (
    Ensemble,
    OutsideSpanError,
    ensemble_error,
    min_error,
    optimal_dual,
    processing_from_dual,
)
from povmlab.qubit import (
    error_bound,
    noise_quantities,
    optimal_four_outcome,
    optimal_three_outcome,
    sigma_pm,
)
from povmlab.serialize import (
    dump_json,
    ensemble_from_json,
    ensemble_to_json,
    markov_from_json,
    markov_to_json,
    operator_from_json,
    operator_to_json,
    povm_from_json,
    povm_to_json,
)
from povmlab.standard import six_state_ensemble

from helpers import (
    SX,
    SY,
    SZ,
    convex_union,
    kernel_state,
    plain_lookup_counts,
    random_ensemble,
    random_hermitian,
    random_observable,
    random_povm,
    random_state,
    reference_least_blur,
    reference_optimal_dual,
    reference_post_processing,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(st.sampled_from([optimal_three_outcome, optimal_four_outcome]), st.booleans(),
       st.floats(-9.5, -0.3))
@example(optimal_three_outcome, False, -8.0)
def test_rank_one_closed_form_meets_min_error_and_bound(family, near_half_pi, exponent):
    # for a rank-one planar POVM with Delta = 0 the total error is
    # 4 (c2/B + s2/(2 - B) - kappa/2); written with 1 - c2 for s2 it cancels
    # near theta = 0, where 2 - B ~ 2 theta.  Below 10^-9.5 from either end
    # the families drop their vanishing elements.
    theta = np.pi / 2 - 10.0 ** exponent if near_half_pi else 10.0 ** exponent
    P, E = family(theta), six_state_ensemble()
    s = noise_quantities(P, E, theta)
    assert abs(s.Delta) <= 1e-12
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    closed = 4.0 * (c2 / s.B + s2 / (2.0 - s.B) - s.kappa / 2.0)
    plus, minus = sigma_pm(theta)
    assert abs(closed - (min_error(P, E, plus) + min_error(P, E, minus))) <= 1e-12
    assert abs(closed - error_bound(theta, s.kappa)) <= 1e-12
    assert abs(closed - s.total_error) <= 1e-12


@st.composite
def frame_cases(draw):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(d, d * d + 2 * d))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P = random_povm(d, n, rng)
    E = random_ensemble(d, int(rng.integers(1, 5)), rng)
    X = from_coords(P.span_projector @ coords(random_hermitian(d, rng)))
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


@pytest.mark.filterwarnings("ignore::povmlab.processing.DegenerateMetricWarning")
@PROPERTY_SETTINGS
@given(st.one_of(frame_cases(), dead_outcome_cases()))
def test_optimal_dual_is_the_reweighted_frame_dual(case):
    # the optimal dual computed in the span equals the canonical dual of the
    # frame reweighted by the barycenter probabilities, completed by the
    # minimum-norm duals of the dead outcomes
    P, E, _ = case
    reference = reference_optimal_dual(P, E)
    gap = np.max(np.abs(optimal_dual(P, E).coords - reference))
    assert gap <= 1e-9 * np.max(np.abs(reference))
    K = P.null_basis
    assert K.shape == (len(P), len(P) - P.span_rank)
    assert np.max(np.abs(P.design_matrix @ K), initial=0.0) <= 1e-12
    assert np.max(np.abs(K.T @ K - np.eye(K.shape[1])), initial=0.0) <= 1e-12


@PROPERTY_SETTINGS
@given(st.integers(2, 3), st.integers(2, 8), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 3000), st.lists(st.floats(0.0, 1.0), max_size=4))
def test_sample_counts_do_not_depend_on_the_split(d, n, seed, n_ex, cuts):
    rng = np.random.default_rng(seed)
    P, rho = random_povm(d, n, rng), random_state(d, rng)
    edges = [0] + sorted(int(c * n_ex) for c in cuts) + [n_ex]
    pieces = sum(sample_range(P, rho, a, b, seed) for a, b in zip(edges, edges[1:]))
    assert np.array_equal(pieces, sample(P, rho, n_ex, seed).counts)


def diagonal_case(p):
    """Qubit POVM ``diag(p_i, 1/N)`` and the state ``diag(1, 0)``.

    The state sees outcome i with probability exactly ``p_i``, and an
    outcome with ``p_i = 0`` keeps its nonzero element.
    """
    elements = np.zeros((len(p), 2, 2))
    elements[:, 0, 0] = p
    elements[:, 1, 1] = 1.0 / len(p)
    return Povm(elements), np.diag([1.0, 0.0])


@st.composite
def sampling_cases(draw):
    """Up to 300 outcomes, some dead, with dyadic or generic probabilities.

    Dyadic probabilities ``w_i / 2^k`` put edges of the cumulative
    distribution exactly on cell boundaries of the sampler's table.  The
    range starts anywhere in the first 2e5 draws and spans up to 2e5.
    """
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        total = 1 << draw(st.integers(0, 14))
        cuts = np.sort(rng.integers(0, total + 1, size=n - 1))
        p = np.diff(np.concatenate([[0], cuts, [total]])) / total
    else:
        p = rng.random(n) * (rng.random(n) > 0.2)
        if not p.any():
            p[0] = 1.0
        p /= p.sum()
    start = draw(st.integers(0, 200_000))
    stop = start + draw(st.integers(0, 200_000))
    return diagonal_case(p), start, stop, draw(st.integers(0, 2 ** 64 - 1))


@PROPERTY_SETTINGS
@given(sampling_cases())
# dyadic probabilities over a range crossing the 2^16-draw block boundary
@example((diagonal_case([0.25, 0.5, 0.0, 0.125, 0.125]), 65_533, 196_611, 7))
@example((diagonal_case([0.5, 0.0, 0.5]), 3, 65_540, 2 ** 64 - 1))
def test_sample_range_matches_the_plain_lookup(case):
    (P, rho), start, stop, seed = case
    counts = sample_range(P, rho, start, stop, seed)
    assert np.array_equal(counts, plain_lookup_counts(P, rho, start, stop, seed))


BLOCK = montecarlo._BLOCK


@st.composite
def worker_cases(draw):
    """A range of 0-6 sampler blocks from any start, a 64-bit seed and a worker count.

    All but the outcome count come from the drawn generator, so block
    counts, worker counts and seeds spread evenly over the examples.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = rng.random(draw(st.integers(1, 40)))
    blocks = int(rng.integers(0, 7))
    start = int(rng.integers(0, 2 * BLOCK))
    stop = start + (int(rng.integers((blocks - 1) * BLOCK, blocks * BLOCK)) + 1 if blocks else 0)
    seed = int(rng.integers(0, 2 ** 64, dtype=np.uint64))
    return diagonal_case(p / p.sum()), start, stop, seed, int(rng.choice([1, 2, 3, 5]))


# four blocks from an unaligned start: three block boundaries, one per worker count
@PROPERTY_SETTINGS
@given(worker_cases())
@example((diagonal_case([0.25, 0.5, 0.25]), 6, 6 + 3 * BLOCK + 1, 2 ** 64 - 1, 1))
@example((diagonal_case([0.25, 0.5, 0.25]), 6, 6 + 3 * BLOCK + 1, 2 ** 64 - 1, 2))
@example((diagonal_case([0.25, 0.5, 0.25]), 6, 6 + 3 * BLOCK + 1, 2 ** 64 - 1, 3))
@example((diagonal_case([0.25, 0.5, 0.25]), 6, 6 + 3 * BLOCK + 1, 2 ** 64 - 1, 5))
def test_counts_do_not_depend_on_the_worker_count(case):
    (P, rho), start, stop, seed, workers = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_cpu_count", lambda: workers)
        counts = sample_range(P, rho, start, stop, seed)
    assert np.array_equal(counts, plain_lookup_counts(P, rho, start, stop, seed))


@PROPERTY_SETTINGS
@given(st.integers(2, 3), st.integers(0, 2 ** 32 - 1), st.integers(2, 4))
def test_blur_then_unbias_recovers_target_probabilities(d, seed, m):
    rng = np.random.default_rng(seed)
    P = random_povm(d, d * d + int(rng.integers(0, d + 1)), rng)
    Q = random_povm(d, m, rng)
    blur = blur_for_post_processing(P, Q)
    rho = random_state(d, rng)
    recovered = unbias(blur, blur.markov.m @ P.probabilities(rho))
    assert np.allclose(recovered, Q.probabilities(rho), rtol=0.0, atol=1e-8)


def random_markov(n_out, n_in, rng):
    return MarkovMatrix(rng.dirichlet(np.ones(n_out), size=n_in).T)


@PROPERTY_SETTINGS
@given(st.integers(2, 3), st.integers(0, 2 ** 32 - 1))
def test_composed_markov_maps_keep_the_target_reachable(d, seed):
    rng = np.random.default_rng(seed)
    P = random_povm(d, int(rng.integers(2, d * d + d + 1)), rng)
    m1 = random_markov(int(rng.integers(2, 6)), len(P), rng)
    m2 = random_markov(int(rng.integers(2, 5)), m1.rows, rng)
    R = apply_post_processing(apply_post_processing(P, m1), m2)
    assert np.allclose(apply_post_processing(P, m2.compose(m1)).elements, R.elements,
                       rtol=0.0, atol=1e-12)
    search = find_post_processing(R, P)
    assert search.feasible
    assert search.residual <= FEASIBILITY_RESIDUAL
    miss = np.tensordot(search.markov.m, P.elements, axes=(1, 0)) - R.elements
    assert max(np.abs(miss.real).max(), np.abs(miss.imag).max()) <= FEASIBILITY_RESIDUAL


@st.composite
def lp_cases(draw, kinds=("indep", "over", "deficient", "union")):
    """A POVM of one of the ``kinds``, a target for it, two observables and the target's kind.

    The POVM is linearly independent (N = d^2), overcomplete, span-deficient
    (noisy readouts of one observable, so N > span rank) or the convex union
    of two spectral POVMs.  The target is a Markov image of it (feasible by
    construction), the spectral POVM of one of the observables (feasible
    over the union, as a rule infeasible otherwise) or a random POVM with
    its outcomes reordered.
    """
    d = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(kinds))
    target = draw(st.sampled_from(["markov", "spectral", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A, B = random_observable(d, rng), random_observable(d, rng)
    if kind == "indep":
        P = random_povm(d, d * d, rng)
    elif kind == "over":
        P = random_povm(d, d * d + int(rng.integers(1, 2 * d + 1)), rng)
    elif kind == "deficient":
        noise = random_markov(d + int(rng.integers(1, 4)), A.spectrum_size, rng)
        P = apply_post_processing(spectral_povm(A), noise)
    else:
        P = convex_union(spectral_povm(A), spectral_povm(B), float(rng.uniform(0.2, 0.8)))
    if target == "markov":
        Q = apply_post_processing(P, random_markov(int(rng.integers(2, 5)), len(P), rng))
    elif target == "spectral":
        Q = spectral_povm(A)
    else:
        Q = random_povm(d, int(rng.integers(2, 5)), rng)
        Q = t2_permute(Q, rng.permutation(len(Q)))
    return P, Q, [A, B], target


@PROPERTY_SETTINGS
@given(lp_cases())
def test_post_processing_agrees_with_the_full_minimax_lp(case):
    P, Q, _, _ = case
    feasible, _ = reference_post_processing(Q, P)
    search = find_post_processing(Q, P)
    assert search.feasible == feasible
    assert abs(search.visibility - reference_least_blur(P, Q)) <= 1e-9
    if feasible:
        miss = np.tensordot(search.markov.m, P.elements, axes=(1, 0)) - Q.elements
        assert np.max(np.abs(miss)) <= FEASIBILITY_RESIDUAL
        assert search.residual <= FEASIBILITY_RESIDUAL


@PROPERTY_SETTINGS
@given(lp_cases())
def test_joint_measurement_agrees_with_the_full_lp(case):
    P, Q, observables, target = case
    A, B = observables
    result = find_joint_measurement(P, observables)
    lams = [cert.visibility for cert in result.certificates]
    reference = [reference_least_blur(P, spectral_povm(X)) for X in observables]
    assert np.allclose(lams, reference, rtol=0.0, atol=1e-9)
    assert result.feasible == is_ab_infocomplete(P, ab_space(A, B))
    # the product of the two maps is a joint POVM of the blurred observables
    G = Povm(result.joint.elements, tol=P.tol, drop_zero=False).elements
    G = G.reshape(A.spectrum_size, B.spectrum_size, P.dim, P.dim)
    for marginal, X, lam in ((G.sum(axis=1), A, lams[0]), (G.sum(axis=0), B, lams[1])):
        blurred = lam * X.projectors + (1.0 - lam) / X.spectrum_size * np.eye(P.dim)
        assert np.max(np.abs(marginal - blurred)) <= 1e-9


@PROPERTY_SETTINGS
@given(lp_cases())
def test_blur_is_the_least_blur(case):
    P, Q, _, target = case
    lam = least_blur(P, Q)[0]
    if target == "markov":
        assert lam >= 1.0 - 1e-9
    try:
        blur = blur_for_post_processing(P, Q)
    except OutsideSpanError:
        assert lam == 0.0
        return
    # 1 - (1 - lam) rounds away from lam when lam < 1/2, so eps* is compared as computed
    assert blur.epsilon_star == 1.0 - lam
    realized = np.tensordot(blur.markov.m, P.elements, axes=(1, 0))
    assert np.max(np.abs(realized - blur.blurred.elements)) <= FEASIBILITY_RESIDUAL
    # the coefficients are a processing of Q itself
    assert np.max(np.abs(np.tensordot(blur.coefficients.T, P.elements, axes=(1, 0))
                         - Q.elements)) <= 1e-9


def in_span_povm(Q, n, rng):
    """A random n-outcome POVM projected onto Q's span, mixed with enough 1/n to stay positive."""
    U = Q.svd[0]
    T = np.array([from_coords(U @ (U.T @ coords(E))) for E in random_povm(Q.dim, n, rng).elements])
    low = np.linalg.eigvalsh(T)[:, 0]
    s = min(1.0, 1e-6 + np.max(np.maximum(-low, 0.0) / (1.0 / n - low)))
    return Povm((1.0 - s) * T + (s / n) * np.eye(Q.dim))


@PROPERTY_SETTINGS
@given(st.integers(2, 3), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_processing_never_lowers_the_blur(d, seed, reachable):
    # if Q = m P, a map m' that takes Q to a blurred T takes P there through
    # m' m, so T's least blur over P is at least its least blur over Q
    rng = np.random.default_rng(seed)
    P = random_povm(d, int(rng.integers(2, d * d + d + 1)), rng)
    Q = apply_post_processing(P, random_markov(int(rng.integers(2, d * d + 2)), len(P), rng))
    n = int(rng.integers(2, 5))
    T = (apply_post_processing(Q, random_markov(n, len(Q), rng)) if reachable
         else in_span_povm(Q, n, rng))
    assert least_blur(P, T)[0] >= least_blur(Q, T)[0] - 1e-9
    assert (blur_for_post_processing(P, T).epsilon_star
            <= blur_for_post_processing(Q, T).epsilon_star + 1e-9)


@PROPERTY_SETTINGS
@given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_processing_never_lowers_min_error(d, seed, split):
    # if Q = m P, a processing c of X for Q gives P the processing
    # c'_i = sum_j m(j|i) c_j, which by convexity costs no more.  A P that
    # splits each outcome of Q in unequal parts ties with Q, while its
    # canonical dual, which ignores the probabilities, costs more.
    rng = np.random.default_rng(seed)
    if split:
        R = random_povm(d, int(rng.integers(2, d * d + 1)), rng)
        parts = int(rng.integers(2, 4))
        w = rng.dirichlet(np.ones(parts), size=len(R))
        P = Povm((w[:, :, None, None] * R.elements[:, None]).reshape(-1, d, d))
        m = MarkovMatrix(np.repeat(np.eye(len(R)), parts, axis=1))
    else:
        P = random_povm(d, int(rng.integers(2, d * d + d + 1)), rng)
        m = random_markov(int(rng.integers(2, d * d + 2)), len(P), rng)
    Q = apply_post_processing(P, m)
    E = random_ensemble(d, int(rng.integers(1, 5)), rng)
    X = from_coords(Q.span_projector @ coords(random_hermitian(d, rng)))
    X = 0.5 * (X + X.conj().T)
    bound = min_error(Q, E, X)
    assert min_error(P, E, X) <= bound + 1e-9 * max(1.0, abs(bound))


@PROPERTY_SETTINGS
@given(st.integers(4, 8), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_least_blurs_obey_the_busch_bound(n, rank_one, seed):
    # unsharp qubit observables 1/2 (1 +- lam_a a.sigma) and 1/2 (1 +- lam_b b.sigma)
    # are jointly measurable only if |lam_a a + lam_b b| + |lam_a a - lam_b b| <= 2
    # (P. Busch, PRD 33, 2253 (1986)); the least blurs from one POVM are
    rng = np.random.default_rng(seed)
    P = random_povm(2, n, rng, rank_one=rank_one)
    a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
    lam_a, lam_b = (least_blur(P, spectral_povm(Observable(v[0] * SX + v[1] * SY + v[2] * SZ)))[0]
                    for v in (a, b))
    busch = np.linalg.norm(lam_a * a + lam_b * b) + np.linalg.norm(lam_a * a - lam_b * b)
    assert busch <= 2.0 + 1e-9


@PROPERTY_SETTINGS
@given(lp_cases())
def test_witness_value_equals_the_residual(case):
    # every post-processing of P reaching l Q_j + (1 - l)/M 1 has
    # l <= Sum_i max_j Tr[Y_j P_i] - Sum_j Tr[Y_j]/M when
    # Sum_j Tr[Y_j (Q_j - 1/M)] = 1; the witness makes that bound the least
    # blur, and the least blur's map misses Q by (1 - lam) max_j |w_j - e/M|
    P, Q, _, _ = case
    search = find_post_processing(Q, P)
    if search.feasible:
        assert search.witness is None
        return
    Y, M = search.witness, len(Q)
    assert Y.shape == (M,) + Q.elements.shape[1:]
    uniform = np.eye(P.dim) / M
    assert abs(np.einsum("jab,jba->", Y, Q.elements - uniform).real - 1.0) <= 1e-9
    on_inputs = np.einsum("jab,iba->ji", Y, P.elements).real
    bound = on_inputs.max(axis=0).sum() - np.einsum("jaa->", Y).real / M
    assert abs(bound - search.visibility) <= 1e-9
    spread = np.max(np.abs(coords(Q.elements - uniform)))
    assert abs(search.residual - (1.0 - bound) * spread) <= 1e-9


def through_json(doc):
    return json.loads(dump_json(doc))


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@PROPERTY_SETTINGS
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_serialization_round_trips_are_bit_exact(d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert same_bits(operator_from_json(through_json(operator_to_json(X))), X)

    P = random_povm(d, int(rng.integers(1, d * d + 2)), rng)
    labels = [float(x) for x in rng.normal(size=len(P))]
    P = Povm(P.elements, labels=labels, validate=False)
    back = povm_from_json(through_json(povm_to_json(P)))
    assert same_bits(back.elements, P.elements)
    assert [float(lab) for lab in back.labels] == labels

    E = random_ensemble(d, int(rng.integers(1, 5)), rng)
    back = ensemble_from_json(through_json(ensemble_to_json(E)))
    assert same_bits(back.weights, E.weights) and same_bits(back.states, E.states)

    m = random_markov(int(rng.integers(1, 5)), int(rng.integers(1, 5)), rng)
    assert same_bits(markov_from_json(through_json(markov_to_json(m))).m, m.m)


def reference_projector(columns):
    """Projector onto the column span, cut like ``Tolerances.eig_zero`` (1e-10 relative)."""
    U, s, _ = np.linalg.svd(np.asarray(columns), full_matrices=False)
    U = U[:, s > 1e-10 * s[0]]
    return U @ U.conj().T


def flat_columns(operators):
    return np.stack([np.asarray(op, dtype=complex).reshape(-1) for op in operators], axis=1)


def off_threshold(residual, tol):
    """A reference residual is compared, not re-derived at the cutoff: keep clear of it."""
    return residual < 1e-3 * tol.lin_solve or residual > 1e3 * tol.lin_solve


@st.composite
def r_cases(draw):
    """A POVM, often rank-deficient or with dependent elements, and operators R
    drawn inside its span, generically, or both."""
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        P = random_povm(d, draw(st.integers(2, d * d + 2)), rng)
    else:  # a projective POVM with one outcome split in two: dependent elements
        P = t3_split(spectral_povm(Observable(random_hermitian(d, rng))), 0, 0.3)
    inside = [np.tensordot(rng.normal(size=len(P)), P.elements, axes=(0, 0))
              for _ in range(draw(st.integers(0, 3)))]
    generic = [random_hermitian(d, rng) for _ in range(draw(st.integers(0, 2)))]
    return P, (inside + generic) or [random_hermitian(d, rng)]


@PROPERTY_SETTINGS
@given(r_cases())
def test_r_infocompleteness_matches_the_projector_product(case):
    P, R = case
    Pi_R = reference_projector(flat_columns(R))
    Pi_P = reference_projector(flat_columns(P.elements))
    residual = float(np.linalg.norm(Pi_R @ Pi_P - Pi_R))
    assert off_threshold(residual, P.tol)
    assert is_r_infocomplete(P, R) == (residual <= P.tol.lin_solve)


def observable_on(U, levels, rng):
    return Observable(U @ np.diag(rng.choice(levels, U.shape[0])) @ U.conj().T)


@st.composite
def ab_cases(draw):
    """Observables A, B with spectra on a well-separated grid (degeneracies
    allowed), generic, commuting or identical, and a POVM P that is random, the
    spectral POVM of A, or the common eigenbasis of commuting A and B."""
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    unitary = lambda: np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    U = unitary()
    A = observable_on(U, levels, rng)
    pair = draw(st.sampled_from(["generic", "commuting", "identical"]))
    B = {"generic": lambda: observable_on(unitary(), levels, rng),
         "commuting": lambda: observable_on(U, levels, rng),
         "identical": lambda: Observable(A.operator)}[pair]()
    povm = draw(st.sampled_from(["random", "spectral", "eigenbasis"]))
    if povm == "random":
        P = random_povm(d, draw(st.integers(2, d * d + 2)), rng)
    elif povm == "spectral":
        P = spectral_povm(A)
    else:
        P = Povm([np.outer(u, u.conj()) for u in U.T])
    return A, B, P


def candidates(A, B):
    return [np.eye(A.dim)] + list(independent_powers(A)[1:]) + list(independent_powers(B)[1:])


@PROPERTY_SETTINGS
@given(ab_cases())
def test_ab_infocompleteness_matches_the_projector_products(case):
    A, B, P = case
    S = ab_space(A, B)
    Pi_S = reference_projector(flat_columns(candidates(A, B)))
    Pi_P = reference_projector(flat_columns(P.elements))
    contained = float(np.linalg.norm(Pi_S @ Pi_P - Pi_S))
    equal = float(np.linalg.norm(Pi_P - Pi_S))
    assert off_threshold(contained, P.tol) and off_threshold(equal, P.tol)
    assert is_ab_infocomplete(P, S) == (contained <= P.tol.lin_solve)
    assert is_minimal_ab_infocomplete(P, S) == (
        contained <= P.tol.lin_solve and equal <= P.tol.lin_solve)


@PROPERTY_SETTINGS
@given(ab_cases())
def test_ab_space_basis_is_orthonormal_and_holds_every_power_and_projector(case):
    A, B, _ = case
    S = ab_space(A, B)
    assert np.allclose(S.columns.conj().T @ S.columns, np.eye(S.dim), rtol=0.0, atol=1e-12)
    assert S.dim == np.linalg.matrix_rank(flat_columns(candidates(A, B)))
    for X in (A, B):
        powers = [np.linalg.matrix_power(X.operator, n) for n in range(X.dim + 1)]
        assert all(S.contains(op) for op in powers + list(X.projectors))


@st.composite
def defective_stacks(draw):
    """A random valid stack with up to three defects, each at a random index.

    A defect makes an element not self-adjoint, shifts its least eigenvalue
    below zero along its eigenvector, inserts a zero element, or scales an
    element so the sum misses the identity.  Traces stay positive.
    """
    d = draw(st.integers(2, 4))
    n = draw(st.integers(d, d * d + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    elements = list(random_povm(d, n, rng).elements)
    for defect in draw(st.lists(st.sampled_from(["adjoint", "negative", "zero", "sum"]),
                                max_size=3)):
        i = draw(st.integers(0, len(elements) - 1))
        size = 10.0 ** rng.uniform(-6, -1)
        m = elements[i].copy()
        if defect == "adjoint":
            m[0, 1] += size
        elif defect == "negative":
            lam, vec = np.linalg.eigh(0.5 * (m + m.conj().T))
            m -= (lam[0] + size * lam[-1]) * np.outer(vec[:, 0], vec[:, 0].conj())
        elif defect == "sum":
            m *= 1.0 + size
        if defect == "zero":
            elements.insert(i, np.zeros((d, d), dtype=complex))
        else:
            elements[i] = m
    return elements


def povm_verdict(elements):
    """What ``Povm`` raises: None, "incomplete", or the index and problem it names."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroElementWarning)
        try:
            Povm(elements)
        except NotPositiveError as exc:
            return exc.index, "not positive"
        except NotCompleteError:
            return "incomplete"
        except ValueError as exc:
            found = re.fullmatch(r"element (\d+) is not self-adjoint .*", str(exc))
            assert found, str(exc)
            return int(found.group(1)), "not self-adjoint"
    return None


@PROPERTY_SETTINGS
@given(defective_stacks())
# a negative element before a more negative one, and before a non-self-adjoint one
@example([np.diag([-0.1, 0.5]), np.diag([-0.3, 0.2]), np.diag([1.4, 0.3])])
@example([np.diag([-0.1, 0.5]), np.array([[0.6, 0.2], [0.0, 0.5]]), np.diag([0.5, 0.0])])
def test_povm_report_and_ensemble_apply_one_element_rule(elements):
    report = povm_report(elements)
    verdict = povm_verdict(elements)
    assert (verdict is None) == report["valid"]
    zero = [np.linalg.norm(m) <= DEFAULT_TOL.psd_slack for m in elements]
    first = next((issue for issue in report["issues"]
                  if issue["problem"] != "zero element (dropped)"), None)
    if first is None:
        assert verdict in (None, "incomplete")
        expected = None
    else:
        assert verdict == (first["index"], first["problem"])
        problem = {"not self-adjoint": "is not self-adjoint",
                   "not positive": "is not positive semidefinite"}[first["problem"]]
        # the zero states are left out of the Ensemble below, which numbers the rest
        expected = f"state {first['index'] - sum(zero[:first['index']])} {problem}"
    states = [m / np.real(np.trace(m)) for m, z in zip(elements, zero) if not z]
    try:
        Ensemble(np.full(len(states), 1.0 / len(states)), states)
        raised = None
    except ValueError as exc:
        raised = str(exc)
    assert raised == expected


@st.composite
def edge_stacks(draw):
    """Hermitian stacks, d 2-12, element norms 0.1-10, some least eigenvalues at the rule's edge.

    Each element's eigenvalues are drawn in ``[0, scale]``.  An ``edge_in`` or
    ``edge_out`` element has its least one set to ``-psd_slack * (1 -+ 0.01)``,
    far outside the rounding error of its construction, and a ``negative``
    one well below it.
    """
    d = draw(st.integers(2, 12))
    kinds = draw(st.lists(st.sampled_from(["inside", "edge_in", "edge_out", "negative"]),
                          min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    slack = DEFAULT_TOL.psd_slack
    stack = []
    for kind in kinds:
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        lam = scale * np.sort(rng.uniform(0.0, 1.0, d))
        lam[-1] = scale
        lam[0] = {"inside": lam[0], "edge_in": -0.99 * slack, "edge_out": -1.01 * slack,
                  "negative": -1e-3 * scale}[kind]
        U, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        stack.append((U * lam) @ U.conj().T)
    return np.array(stack)


@PROPERTY_SETTINGS
@given(edge_stacks())
def test_positivity_screen_matches_the_least_eigenvalues(stack):
    # the Cholesky screen gives every validator the verdict, the first index
    # and the least eigenvalue that the eigenvalues alone give
    lowest = np.linalg.eigvalsh(0.5 * (stack + np.conj(np.transpose(stack, (0, 2, 1)))))[:, 0]
    negative = lowest < -DEFAULT_TOL.psd_slack
    bad = np.flatnonzero(negative)
    with pytest.raises((NotPositiveError, NotCompleteError)) as exc:
        Povm(stack)
    if bad.size:
        assert (exc.value.index, exc.value.min_eigenvalue) == (bad[0], lowest[bad[0]])
    else:
        assert exc.type is NotCompleteError
    issues = [(issue["index"], issue["min_eigenvalue"]) for issue in povm_report(stack)["issues"]]
    assert issues == [(i, lowest[i]) for i in bad]
    # an ensemble checks unit trace last, element by element
    traces = np.real(np.trace(stack, axis1=1, axis2=2))
    j = np.flatnonzero(negative | (np.abs(traces - 1.0) > DEFAULT_TOL.lin_solve))[0]
    with pytest.raises(ValueError) as exc:
        Ensemble(np.full(len(stack), 1.0 / len(stack)), stack)
    assert str(exc.value) == (f"state {j} is not positive semidefinite" if negative[j]
                              else f"state {j} does not have unit trace")
