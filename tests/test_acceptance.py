"""End-to-end acceptance gate.

Each test verifies one headline guarantee of the library at its stated
tolerance; the terminal summary prints one [PASS]/[FAIL] line per
guarantee (see conftest).  Everything here is deterministic: fixed seeds,
closed-form expected values, and wall-clock limits generous enough for a
laptop.
"""

import time

import numpy as np
import pytest

from helpers import (
    SZ,
    random_ensemble,
    random_hermitian,
    random_observable,
    random_planar_rank_one_povm,
    random_povm,
    random_state,
)
from povmlab.abspace import independent_powers, vandermonde_recovery
from povmlab.hs import coords, dagger, from_coords
from povmlab.montecarlo import (
    empirical_estimate,
    sample,
    stream_variance,
    variance_band,
)
from povmlab.postproc import (
    MarkovMatrix,
    apply_post_processing,
    blur_for_post_processing,
    is_clean,
    is_post_processing_of,
    least_blur,
    t1_identify,
    t3_split,
    unbias,
)
from povmlab.povm import (
    Observable,
    Povm,
    alternate_dual,
    canonical_dual,
    spectral_povm,
    symmetrize_dual,
)
from povmlab.processing import (
    ProcessingFunction,
    ensemble_error,
    metric_diagonal,
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
from povmlab.standard import (
    pauli_projective,
    projective_povm,
    sic_povm,
    six_state_ensemble,
    trine_povm,
)

I2 = np.eye(2)


@pytest.mark.acceptance(
    "both closed-form qubit families achieve the noise bound at 15 angles (1e-9)"
)
def test_qubit_families_achieve_bound():
    ensemble = six_state_ensemble()
    start = time.perf_counter()
    for k in range(1, 16):
        theta = k * np.pi / 32.0
        for family in (optimal_three_outcome, optimal_four_outcome):
            s = noise_quantities(family(theta), ensemble, theta)
            # kappa comes out of the ensemble second moments, not an assumption
            assert abs(s.kappa - 1.0 / 3.0) <= 1e-12
            bound = 2.0 * (1.0 + np.sin(2.0 * theta) - s.kappa)
            assert abs(s.bound - bound) <= 1e-12
            assert abs(s.total_error - bound) <= 1e-9
    assert time.perf_counter() - start < 1.0


@pytest.mark.acceptance(
    "200 random minimal planar rank-one POVMs never beat the noise bound (slack 1e-9)"
)
def test_random_planar_povms_respect_bound():
    rng = np.random.default_rng(2024)
    ensemble = six_state_ensemble()
    start = time.perf_counter()
    for _ in range(200):
        P = random_planar_rank_one_povm(int(rng.integers(3, 6)), rng)
        for theta in rng.uniform(0.05, np.pi / 2.0 - 0.05, size=5):
            s = noise_quantities(P, ensemble, float(theta))
            assert s.total_error >= s.bound - 1e-9
    assert time.perf_counter() - start < 5.0


@pytest.mark.acceptance(
    "the qubit SIC pays a strict premium (> 1e-3) over the planar bound at three angles"
)
def test_sic_premium_over_planar_bound():
    P = sic_povm()
    ensemble = six_state_ensemble()
    start = time.perf_counter()
    for theta in (np.pi / 8.0, np.pi / 4.0, 3.0 * np.pi / 8.0):
        plus, minus = sigma_pm(theta)
        total = min_error(P, ensemble, plus) + min_error(P, ensemble, minus)
        kappa = 0.5 * (ensemble.second_moment(plus) + ensemble.second_moment(minus))
        margin = total - error_bound(theta, kappa)
        assert margin > 1e-3
    assert time.perf_counter() - start < 1.0


@pytest.mark.acceptance(
    "four-outcome optimum at theta = pi/4: both rotated-target errors equal 5/3"
)
def test_balanced_errors_at_central_angle():
    theta = np.pi / 4.0
    P = optimal_four_outcome(theta)
    ensemble = six_state_ensemble()
    plus, minus = sigma_pm(theta)
    err_plus = min_error(P, ensemble, plus)
    err_minus = min_error(P, ensemble, minus)
    assert abs(err_plus - 5.0 / 3.0) <= 1e-9
    assert abs(err_minus - 5.0 / 3.0) <= 1e-9
    kappa = 0.5 * (ensemble.second_moment(plus) + ensemble.second_moment(minus))
    assert abs(np.sqrt(err_plus * err_minus) - (1.0 + np.sin(2.0 * theta) - kappa)) <= 1e-9


@pytest.mark.acceptance(
    "dual-frame identities on 100 random POVMs: resolution, self-adjointness, "
    "unit trace, and the minimality condition (1e-9)"
)
def test_dual_frame_identities():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for _ in range(100):
        d = int(rng.choice((2, 3, 4)))
        n = int(rng.integers(d, 2 * d * d + 1))
        P = random_povm(d, n, rng)
        ensemble = random_ensemble(d, int(rng.integers(2, 5)), rng)
        canonical = canonical_dual(P)
        optimal = optimal_dual(P, ensemble)
        for dual in (canonical, optimal):
            assert dual.resolution_residual() <= 1e-9
            for m in dual.elements:
                assert np.linalg.norm(m - dagger(m)) <= 1e-9
        pi = metric_diagonal(P, ensemble)
        assert np.all(pi > 1e-12)
        traces = np.einsum("ikk->i", optimal.elements)
        assert np.max(np.abs(traces - 1.0)) <= 1e-9
        # minimality: the metric-weighted cross-overlap matrix is Hermitian
        C = np.einsum("iab,jab->ij", np.conj(optimal.elements), P.elements)
        K = pi[:, None] * C
        assert np.max(np.abs(K - K.conj().T)) <= 1e-9
    assert time.perf_counter() - start < 30.0


@pytest.mark.acceptance(
    "min_error equals the ensemble error of the optimal dual on 50 random triples (1e-9)"
)
def test_min_error_consistency():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.choice((2, 3)))
        P = random_povm(d, int(rng.integers(d, d * d + 3)), rng)
        ensemble = random_ensemble(d, int(rng.integers(2, 5)), rng)
        raw = random_hermitian(d, rng)
        proj = from_coords(P.span_projector @ coords(raw))
        X = 0.5 * (proj + dagger(proj))
        c = processing_from_dual(optimal_dual(P, ensemble), X)
        err = min_error(P, ensemble, X)
        # tolerance is relative: ill-conditioned random frames push the
        # error itself to ~1e3 and absolute 1e-9 would test float64 beyond
        # its precision at that magnitude
        assert abs(err - ensemble_error(P, c, ensemble)) <= 1e-9 * max(1.0, abs(err))


@pytest.mark.acceptance(
    "optimal dual beats 100 random alternate duals per instance on 20 instances"
)
def test_optimal_dual_optimality():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.choice((2, 3)))
        n = int(rng.integers(d + 1, 2 * d * d + 1))
        P = random_povm(d, n, rng)
        ensemble = random_ensemble(d, int(rng.integers(2, 5)), rng)
        raw = random_hermitian(d, rng)
        proj = from_coords(P.span_projector @ coords(raw))
        X = 0.5 * (proj + dagger(proj))
        canonical = canonical_dual(P)
        best = ensemble_error(P, processing_from_dual(optimal_dual(P, ensemble), X), ensemble)
        for _ in range(100):
            Y = [random_hermitian(d, rng, scale=0.5) for _ in range(n)]
            contender = symmetrize_dual(alternate_dual(P, canonical, Y))
            err = ensemble_error(P, processing_from_dual(contender, X), ensemble)
            # relative slack: for linearly independent frames the dual is
            # unique, so contender and optimum coincide up to roundoff
            assert best <= err + 1e-9 * max(1.0, abs(err))


@pytest.mark.acceptance(
    "blur pipeline for SIC -> z readout: exact synthesis, unbiasing on 50 states, "
    "and Monte Carlo variance inflation within 10%"
)
def test_blur_pipeline():
    P = sic_povm()
    target = pauli_projective("z")
    blur = blur_for_post_processing(P, target)
    assert blur.epsilon_star > 0.0
    assert abs(blur.epsilon_star - 2.0 / 3.0) <= 1e-12

    # the blurred POVM is exactly the Markov post-processing of P
    realized = np.tensordot(blur.markov.m, P.elements, axes=(1, 0))
    residual = max(
        float(np.linalg.norm(a - b)) for a, b in zip(realized, blur.blurred.elements)
    )
    assert residual <= 1e-9

    # unbiasing the exact blurred statistics recovers the target's Born rule
    rng = np.random.default_rng(17)
    for _ in range(50):
        rho = random_state(2, rng)
        observed = blur.blurred.probabilities(rho).real
        recovered = unbias(blur, observed)
        expected = target.probabilities(rho).real
        assert np.max(np.abs(recovered - expected)) <= 1e-9

    # physical two-stage chain at the barycenter: draw P outcomes, push each
    # through the Markov map, estimate with the unbiased outcome values
    n = 1_000_000
    run = sample(P, I2 / 2.0, n, seed=101)
    stage2 = np.random.default_rng(202)
    blurred_counts = np.zeros(len(target), dtype=np.int64)
    for i, k in enumerate(run.counts):
        blurred_counts += stage2.multinomial(int(k), blur.markov.m[:, i])
    x = blur.outcome_values
    values = (x - blur.epsilon_star * x.sum() / len(x)) / (1.0 - blur.epsilon_star)
    freq = blurred_counts / n
    mean = float(values @ freq)
    second = float((values**2) @ freq)
    empirical = (second - mean**2) * n / (n - 1)
    direct_var, _ = stream_variance(target, I2 / 2.0, ProcessingFunction(SZ, x))
    inflation_hat = empirical / direct_var
    assert abs(inflation_hat - blur.inflation) <= 0.1 * blur.inflation
    assert abs(mean) < 5.0 * np.sqrt(empirical / n)


@pytest.mark.acceptance(
    "block-inverse identity and projected-inverse inequality on 100 random "
    "positive 4x4 matrices (slack -1e-10)"
)
def test_projected_inverse_inequality():
    rng = np.random.default_rng(19)
    for _ in range(100):
        G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = G @ G.conj().T + 1e-3 * np.eye(4)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        k = int(rng.integers(1, 4))
        U1, U2 = Q[:, :k], Q[:, k:]
        A = U1.conj().T @ H @ U1
        B = U1.conj().T @ H @ U2
        C = U2.conj().T @ H @ U2
        Hinv = np.linalg.inv(H)
        # compressing the inverse equals inverting the Schur complement
        lhs = U1.conj().T @ Hinv @ U1
        rhs = np.linalg.inv(A - B @ np.linalg.inv(C) @ B.conj().T)
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)
        # and dominates the inverse of the compression
        gap = lhs - np.linalg.inv(A)
        assert float(np.linalg.eigvalsh(0.5 * (gap + gap.conj().T))[0]) >= -1e-10


@pytest.mark.acceptance(
    "spectral probabilities recovered from operator moments within 1e-9 (s <= 6, d <= 6)"
)
def test_moment_recovery():
    rng = np.random.default_rng(23)
    for d in range(2, 7):
        for degenerate in (False, True):
            if degenerate and d < 3:
                continue
            if degenerate:
                s = int(rng.integers(2, d))
                vals = np.linspace(-1.0, 1.0, s)
                spectrum = np.concatenate([vals, rng.choice(vals, size=d - s)])
                Q, _ = np.linalg.qr(
                    rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                )
                X = Observable(Q @ np.diag(spectrum) @ Q.conj().T)
            else:
                X = random_observable(d, rng, min_gap=0.5)
            rec = vandermonde_recovery(X)
            rho = random_state(d, rng)
            moments = [
                float(np.real(np.trace(rho @ p))) for p in independent_powers(X)
            ]
            direct = [
                float(np.real(np.trace(rho @ proj))) for proj in X.projectors
            ]
            recovered = rec.probabilities_from_moments(moments)
            assert np.max(np.abs(recovered - np.asarray(direct))) <= 1e-9


@pytest.mark.acceptance(
    "Monte Carlo variance matches the predicted error within 5-sigma bands at "
    "n = 1e5 on 10 cases; reruns are byte-identical"
)
def test_monte_carlo_calibration():
    rng = np.random.default_rng(29)
    n = 100_000
    for case in range(10):
        P = random_povm(2, int(rng.integers(3, 7)), rng)
        rho = random_state(2, rng)
        raw = random_hermitian(2, rng)
        proj = from_coords(P.span_projector @ coords(raw))
        X = 0.5 * (proj + dagger(proj))
        c = processing_from_dual(canonical_dual(P), X)
        run = sample(P, rho, n, seed=1000 + case)
        mean, empirical = empirical_estimate(run, c)
        var, mu4 = stream_variance(P, rho, c)
        exact = float(np.real(np.trace(rho @ X)))
        assert abs(mean - exact) <= 5.0 * np.sqrt(var / (n - 1))
        assert abs(empirical - var) <= 5.0 * variance_band(var, mu4, n)
        rerun = sample(P, rho, n, seed=1000 + case, chunk_size=8192)
        assert run.counts.tobytes() == rerun.counts.tobytes()


def _discretized_family():
    half = 1.0 / np.sqrt(2.0)
    family = [
        Povm([np.eye(2)]),
        Povm([0.3 * np.eye(2), 0.7 * np.eye(2)]),
        Povm([np.eye(2) / 3.0] * 3),
        projective_povm("x"),
        projective_povm("y"),
        projective_povm("z"),
        projective_povm((half, 0.0, half)),
        projective_povm((half, half, 0.0)),
        t3_split(projective_povm("z"), 0, 0.3),
        t3_split(projective_povm((half, 0.0, half)), 1, 0.5),
        trine_povm(),
        trine_povm(0.4),
        t1_identify(trine_povm(), 0, 1),
        apply_post_processing(
            projective_povm("z"), MarkovMatrix([[0.9, 0.3], [0.1, 0.7]])
        ),
    ]
    for axis in ("x", "z"):
        for eps in (0.2, 0.5):
            noise = MarkovMatrix(
                [[1.0 - eps / 2.0, eps / 2.0], [eps / 2.0, 1.0 - eps / 2.0]]
            )
            family.append(apply_post_processing(projective_povm(axis), noise))
    return family


@pytest.mark.acceptance(
    "rank-one cleanness test agrees with the bidirectional post-processing "
    "definition on a discretized qubit family (N <= 3)"
)
def test_cleanness_matches_postprocessing_definition():
    family = _discretized_family()
    assert all(len(P) <= 3 for P in family)
    relation = [
        [is_post_processing_of(P, Q) for Q in family] for P in family
    ]
    for a, P in enumerate(family):
        # maximal under the pseudo-order: anything that P can be distilled
        # from must itself be reachable from P
        oracle = all(
            relation[b][a] for b in range(len(family)) if relation[a][b]
        )
        assert is_clean(P) == oracle, f"family member {a}"


@pytest.mark.acceptance(
    "the four-outcome optimum's least blurs of sigma_+- saturate Busch's bound at "
    "theta = 0.3, 0.6, pi/4 (1e-9); the three-outcome family stays below 1.47"
)
def test_least_blurs_saturate_the_busch_bound():
    # |lam_+ a_+ + lam_- a_-| + |lam_+ a_+ - lam_- a_-| <= 2 for jointly
    # measurable unsharp qubit observables (P. Busch, PRD 33, 2253 (1986))
    def busch_sum(P, theta):
        lam_plus, lam_minus = (least_blur(P, spectral_povm(Observable(X))).visibility
                               for X in sigma_pm(theta))
        plus = lam_plus * np.array([np.cos(theta), np.sin(theta)])
        minus = lam_minus * np.array([np.cos(theta), -np.sin(theta)])
        return np.linalg.norm(plus + minus) + np.linalg.norm(plus - minus)

    start = time.perf_counter()
    for theta in (0.3, 0.6, np.pi / 4.0):
        assert abs(busch_sum(optimal_four_outcome(theta), theta) - 2.0) <= 1e-9
        assert busch_sum(optimal_three_outcome(theta), theta) < 1.47
    assert time.perf_counter() - start < 1.0
