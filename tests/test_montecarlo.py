"""Tests for seeded Born-rule sampling and empirical error estimates."""

import re
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import SZ, bloch_state, random_povm, random_state
from povmlab import montecarlo
from povmlab.montecarlo import (
    GENERATOR_NAME,
    ClampedProbabilityWarning,
    SampleRun,
    empirical_estimate,
    outcome_distribution,
    sample,
    sample_range,
    stream_variance,
    variance_band,
)
from povmlab.povm import Povm, canonical_dual
from povmlab.processing import ProcessingFunction, processing_from_dual
from povmlab.standard import TETRAHEDRON, projective_povm, sic_povm

I2 = np.eye(2)


def sic_sigma_z_function():
    return processing_from_dual(canonical_dual(sic_povm()), SZ)


# Counts of 200 000 draws (seed 31) on random_povm(16, 272) in a random state,
# both from default_rng(2718).
PINNED_D16_COUNTS = [
    878, 696, 798, 885, 785, 682, 640, 783, 700, 781, 778, 600, 579, 694, 709, 678, 707,
    810, 842, 806, 667, 583, 787, 785, 716, 739, 831, 785, 737, 791, 893, 704, 873, 711,
    659, 752, 695, 732, 709, 802, 613, 878, 734, 753, 733, 750, 652, 663, 695, 751, 711,
    956, 830, 728, 741, 781, 788, 735, 648, 681, 647, 775, 827, 807, 710, 770, 646, 615,
    780, 801, 760, 604, 857, 785, 753, 680, 817, 779, 616, 727, 649, 786, 846, 791, 751,
    812, 659, 773, 719, 696, 706, 825, 708, 635, 687, 879, 800, 731, 742, 697, 701, 649,
    751, 633, 749, 660, 869, 714, 829, 627, 725, 899, 795, 671, 649, 662, 856, 786, 727,
    803, 728, 642, 676, 886, 784, 751, 763, 881, 702, 654, 700, 727, 648, 714, 755, 676,
    713, 641, 642, 709, 776, 663, 615, 683, 648, 689, 734, 746, 744, 861, 632, 780, 776,
    661, 719, 649, 709, 737, 769, 719, 768, 777, 837, 809, 640, 799, 696, 619, 777, 612,
    845, 689, 797, 711, 711, 707, 755, 807, 621, 745, 735, 734, 722, 622, 697, 802, 694,
    705, 838, 805, 729, 861, 795, 734, 672, 718, 802, 834, 799, 771, 803, 821, 722, 702,
    787, 712, 783, 724, 638, 682, 742, 788, 812, 743, 633, 667, 662, 793, 752, 735, 718,
    696, 715, 639, 616, 849, 745, 674, 676, 683, 704, 720, 754, 746, 708, 813, 778, 609,
    639, 781, 699, 643, 744, 711, 747, 675, 651, 774, 676, 599, 744, 722, 838, 662, 791,
    781, 692, 773, 741, 790, 790, 867, 782, 656, 655, 722, 854, 772, 752, 729, 769, 736,
]


class TestOutcomeDistribution:
    def test_sic_born_rule(self):
        r = np.array([0.1, -0.4, 0.25])
        probs = outcome_distribution(sic_povm(), bloch_state(r))
        assert_allclose(probs, (1.0 + TETRAHEDRON @ r) / 4.0, atol=1e-12)

    def test_maximally_mixed_uniform(self):
        assert_allclose(outcome_distribution(sic_povm(), I2 / 2.0), np.full(4, 0.25))

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError, match="sum to"):
            outcome_distribution(sic_povm(), 1.1 * I2 / 2.0)

    def test_tiny_negative_probability_clamped(self):
        eps = 5e-11  # inside psd slack
        P = Povm([np.diag([-eps, 1.0]), np.diag([1.0 + eps, 0.0])])
        with pytest.warns(ClampedProbabilityWarning):
            probs = outcome_distribution(P, np.diag([1.0, 0.0]))
        assert probs[0] == 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_negative_probability_rejected(self):
        eps = 1e-8  # beyond psd slack
        P = Povm(
            [np.diag([-eps, 1.0]), np.diag([1.0 + eps, 0.0])],
            validate=False,
        )
        with pytest.raises(ValueError, match="negative"):
            outcome_distribution(P, np.diag([1.0, 0.0]))


class TestSampleRun:
    def test_frequencies(self):
        run = SampleRun(seed=5, n_ex=10, counts=np.array([3, 7]))
        assert_allclose(run.frequencies, [0.3, 0.7])

    def test_count_total_checked(self):
        with pytest.raises(ValueError, match="expected n_ex"):
            SampleRun(seed=0, n_ex=5, counts=np.array([3, 3]))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SampleRun(seed=0, n_ex=2, counts=np.array([3, -1]))

    def test_counts_read_only(self):
        run = SampleRun(seed=0, n_ex=2, counts=np.array([1, 1]))
        with pytest.raises(ValueError):
            run.counts[0] = 5

    def test_non_integral_counts_rejected(self):
        with pytest.raises(ValueError, match="integer vector"):
            SampleRun(seed=0, n_ex=3, counts=[1.5, 2.7])

    def test_n_ex_is_an_integer(self):
        run = SampleRun(seed=0, n_ex=np.int64(3), counts=[1, 2])
        assert type(run.n_ex) is int
        with pytest.raises(TypeError):
            SampleRun(seed=0, n_ex=3.0, counts=[1, 2])


class TestSampling:
    def test_generator_name(self):
        assert GENERATOR_NAME == "philox4x64"

    def test_deterministic(self):
        P = sic_povm()
        rho = bloch_state([0.2, 0.1, -0.3])
        a = sample(P, rho, 5000, seed=42)
        b = sample(P, rho, 5000, seed=42)
        assert np.array_equal(a.counts, b.counts)
        assert a.seed == 42 and a.n_ex == 5000

    def test_seeds_decorrelate(self):
        P = sic_povm()
        rho = I2 / 2.0
        a = sample(P, rho, 5000, seed=0)
        b = sample(P, rho, 5000, seed=1)
        assert not np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("chunk", [1, 137, 4096, None])
    def test_chunking_is_invisible(self, chunk):
        P = sic_povm()
        rho = bloch_state([0.0, 0.5, 0.1])
        full = sample(P, rho, 10_001, seed=7)
        chunked = sample(P, rho, 10_001, seed=7, chunk_size=chunk)
        assert np.array_equal(full.counts, chunked.counts)

    @pytest.mark.parametrize("cover,n", [(1, 10_001), (137, 10_001), (4096, 10_001),
                                         (8192, 10_001), (4096, 3 * montecarlo._BLOCK + 5),
                                         (8192, 3 * montecarlo._BLOCK + 5)])
    def test_chunk_covers_sum_to_the_pass(self, cover, n):
        # sample() is one pass whatever its chunk_size, so cut [0, n) here
        P = sic_povm()
        rho = bloch_state([0.0, 0.5, 0.1])
        pieces = sum(sample_range(P, rho, a, min(a + cover, n), seed=7)
                     for a in range(0, n, cover))
        assert np.array_equal(pieces, sample(P, rho, n, seed=7).counts)

    @pytest.mark.parametrize("chunk", [0, -5])
    def test_chunk_size_must_be_positive(self, chunk):
        with pytest.raises(ValueError, match="chunk_size must be at least 1"):
            sample(sic_povm(), I2 / 2.0, 100, seed=0, chunk_size=chunk)

    def test_ranges_cover_the_stream(self):
        P = projective_povm("z")
        rho = bloch_state([0.3, 0.0, 0.4])
        n = 9999
        edges = [0, 1, 4, 5, 4093, 4096, n]
        pieces = [sample_range(P, rho, a, b, seed=3) for a, b in zip(edges, edges[1:])]
        full = sample(P, rho, n, seed=3)
        assert np.array_equal(np.sum(pieces, axis=0), full.counts)

    def test_single_draw_alignment(self):
        # drawing one index at a time must walk the same stream
        P = sic_povm()
        rho = bloch_state([-0.2, 0.3, 0.1])
        n = 50
        counts = np.zeros(4, dtype=np.int64)
        for k in range(n):
            counts += sample_range(P, rho, k, k + 1, seed=12)
        assert np.array_equal(counts, sample(P, rho, n, seed=12).counts)

    def test_frequencies_approach_born_rule(self):
        P = sic_povm()
        r = np.array([0.1, 0.2, 0.3])
        n = 200_000
        run = sample(P, bloch_state(r), n, seed=9)
        probs = (1.0 + TETRAHEDRON @ r) / 4.0
        sigma = np.sqrt(probs * (1.0 - probs) / n)
        assert np.all(np.abs(run.frequencies - probs) < 5.0 * sigma)

    def test_bad_arguments(self):
        P = sic_povm()
        with pytest.raises(ValueError, match="at least 1"):
            sample(P, I2 / 2.0, 0, seed=0)
        with pytest.raises(ValueError, match="start"):
            sample_range(P, I2 / 2.0, 5, 4, seed=0)
        with pytest.raises(ValueError, match="start"):
            sample_range(P, I2 / 2.0, -1, 4, seed=0)

    def test_numpy_integer_bounds(self):
        P = sic_povm()
        rho = bloch_state([0.2, -0.1, 0.4])
        assert np.array_equal(sample_range(P, rho, np.int64(3), np.int64(1000), seed=5),
                              sample_range(P, rho, 3, 1000, seed=5))
        run = sample(P, rho, np.int64(1000), seed=5, chunk_size=np.int32(7))
        assert np.array_equal(run.counts, sample(P, rho, 1000, seed=5).counts)
        assert type(run.n_ex) is int
        with pytest.raises(TypeError):
            sample_range(P, rho, 3.0, 1000, seed=5)
        with pytest.raises(TypeError):
            sample(P, rho, 1000.0, seed=5)
        with pytest.raises(TypeError):
            sample(P, rho, 1000, seed=5, chunk_size=7.0)


SEED_MESSAGE = r"^seed must be an integer in \[0, 2\*\*128\), got "


class TestSeedValidation:
    @pytest.mark.parametrize("seed,error", [(1.5, TypeError), ("3", TypeError),
                                            (-1, ValueError), (2 ** 128, ValueError)])
    def test_bad_seed_rejected(self, seed, error):
        with pytest.raises(error, match=SEED_MESSAGE + re.escape(repr(seed)) + "$"):
            sample(sic_povm(), I2 / 2.0, 10, seed)
        with pytest.raises(error, match=SEED_MESSAGE):
            sample_range(sic_povm(), I2 / 2.0, 0, 10, seed)

    @pytest.mark.parametrize("seed", [0, 2 ** 128 - 1, np.uint64(2 ** 64 - 1)])
    def test_seed_range_ends_accepted(self, seed):
        run = sample(sic_povm(), I2 / 2.0, 10, seed)
        assert type(run.seed) is int and run.seed == int(seed)

    def test_bad_seed_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 4)
        monkeypatch.setattr(montecarlo.threading, "Thread", None)
        with pytest.raises(ValueError, match=SEED_MESSAGE):
            sample_range(sic_povm(), I2 / 2.0, 0, 5 * montecarlo._BLOCK, -3)


class TestWorkers:
    """A range's whole blocks are cut into one run per CPU, each run in a thread."""

    @staticmethod
    def count_threads(monkeypatch):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(montecarlo.threading, "Thread", Counted)
        return started

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("blocks", [1, 2, 3, 6])
    def test_one_thread_per_run_but_the_first(self, monkeypatch, cpus, blocks):
        started = self.count_threads(monkeypatch)
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
        stop = 3 + (blocks - 1) * montecarlo._BLOCK + 10
        counts = sample_range(sic_povm(), I2 / 2.0, 3, stop, 8)
        assert counts.sum() == stop - 3
        assert len(started) == min(cpus, blocks) - 1

    def test_one_block_starts_no_thread(self, monkeypatch):
        started = self.count_threads(monkeypatch)
        run = sample(sic_povm(), bloch_state([0.1, 0.2, 0.3]), montecarlo._BLOCK, 4)
        assert run.counts.sum() == montecarlo._BLOCK
        assert started == []

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("chunk", [7, 4096, 65536, None])
    def test_chunked_sample_is_one_pass(self, monkeypatch, cpus, chunk):
        started = self.count_threads(monkeypatch)
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
        calls = []
        original = montecarlo.outcome_distribution

        def outcome_distribution(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(montecarlo, "outcome_distribution", outcome_distribution)
        blocks = 3
        n = (blocks - 1) * montecarlo._BLOCK + 5
        run = sample(sic_povm(), bloch_state([0.1, 0.2, 0.3]), n, 4, chunk_size=chunk)
        assert run.counts.sum() == n
        assert len(calls) == 1
        assert len(started) == min(cpus, blocks) - 1

    @pytest.mark.parametrize("failing", [0, 1, 2], ids=["caller", "second", "last"])
    def test_a_run_error_reaches_the_caller(self, monkeypatch, failing):
        baseline = threading.active_count()
        original = montecarlo._count_run
        start, blocks = 5, 3
        failing_lo = start + failing * montecarlo._BLOCK

        def count_run(seed, lo, hi, *rest):
            if lo == failing_lo:
                raise RuntimeError(f"run at {lo} failed")
            return original(seed, lo, hi, *rest)

        monkeypatch.setattr(montecarlo, "_count_run", count_run)
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: blocks)
        with pytest.raises(RuntimeError, match=f"run at {failing_lo} failed"):
            sample_range(sic_povm(), I2 / 2.0, start, start + blocks * montecarlo._BLOCK, 1)
        assert threading.active_count() == baseline


def test_counts_are_pinned():
    # literal counts: any change to the stream or to the outcome map fails here,
    # which reruns that compare the sampler with itself cannot see
    run = sample(sic_povm(), bloch_state([0.2, 0.1, -0.3]), 5000, seed=42)
    assert run.counts.tolist() == [895, 1579, 1393, 1133]
    rng = np.random.default_rng(2718)
    P, rho = random_povm(16, 272, rng), random_state(16, rng)
    assert sample(P, rho, 200_000, seed=31).counts.tolist() == PINNED_D16_COUNTS


class TestEmpiricalEstimate:
    def test_known_counts(self):
        run = SampleRun(seed=0, n_ex=4, counts=np.array([1, 1, 1, 1]))
        c = ProcessingFunction(SZ, [3.0, -1.0, -1.0, -1.0])
        mean, variance = empirical_estimate(run, c)
        assert mean == pytest.approx(0.0, abs=1e-15)
        # second moment 3 with the n/(n-1) correction
        assert variance == pytest.approx(4.0, abs=1e-12)

    def test_single_draw_has_no_variance(self):
        run = SampleRun(seed=0, n_ex=1, counts=np.array([1, 0]))
        c = ProcessingFunction(SZ, [1.0, -1.0])
        assert empirical_estimate(run, c) == (1.0, 0.0)

    def test_coefficient_count_checked(self):
        run = SampleRun(seed=0, n_ex=2, counts=np.array([1, 1]))
        c = ProcessingFunction(SZ, [1.0, -1.0, 0.0])
        with pytest.raises(ValueError, match="coefficients for"):
            empirical_estimate(run, c)

    def test_complex_coefficients_rejected(self):
        run = SampleRun(seed=0, n_ex=2, counts=np.array([1, 1]))
        c = ProcessingFunction(SZ, [1.0 + 0.5j, -1.0])
        with pytest.raises(ValueError, match="not real"):
            empirical_estimate(run, c)

    def test_calibration_against_exact_moments(self):
        P = sic_povm()
        rho = bloch_state([0.1, 0.2, 0.3])
        c = sic_sigma_z_function()
        n = 500_000
        run = sample(P, rho, n, seed=11)
        mean, variance = empirical_estimate(run, c)
        var, mu4 = stream_variance(P, rho, c)
        z = (mean - 0.3) / np.sqrt(var / (n - 1))
        assert abs(z) < 4.0
        assert abs(variance - var) < 5.0 * variance_band(var, mu4, n)


class TestStreamVariance:
    def test_sic_sigma_z_at_maximally_mixed(self):
        var, mu4 = stream_variance(sic_povm(), I2 / 2.0, sic_sigma_z_function())
        assert var == pytest.approx(3.0, abs=1e-12)
        assert mu4 == pytest.approx(21.0, abs=1e-12)

    def test_projective_two_valued_stream(self):
        P = projective_povm("z")
        c = ProcessingFunction(SZ, [1.0, -1.0])
        var, mu4 = stream_variance(P, I2 / 2.0, c)
        assert var == pytest.approx(1.0, abs=1e-14)
        assert mu4 == pytest.approx(1.0, abs=1e-14)

    def test_band_formula(self):
        n = 100
        band = variance_band(1.0, 1.0, n)
        # mu4 = var^2 leaves the exact 2/((n-1) n) fluctuation
        assert band == pytest.approx(np.sqrt(2.0 / (99 * 100)), abs=1e-15)
        assert variance_band(3.0, 21.0, 10**6) == pytest.approx(
            np.sqrt((21.0 - 9.0 * (10**6 - 3) / (10**6 - 1)) / 10**6), abs=1e-15
        )

    def test_band_needs_two_draws(self):
        with pytest.raises(ValueError, match="two draws"):
            variance_band(1.0, 1.0, 1)

    def test_two_valued_stream_variance_fluctuates_within_band(self):
        P = projective_povm("z")
        rho = bloch_state([0.0, 0.0, 0.5])
        c = ProcessingFunction(SZ, [1.0, -1.0])
        n = 1_000_000
        run = sample(P, rho, n, seed=21)
        _, variance = empirical_estimate(run, c)
        var, mu4 = stream_variance(P, rho, c)
        band = variance_band(var, mu4, n)
        assert band > 0.0
        assert abs(variance - var) < 5.0 * band
