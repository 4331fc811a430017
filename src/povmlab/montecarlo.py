"""Seeded Born-rule outcome sampling and empirical error estimates.

Sampling uses the counter-based Philox generator keyed directly by the
seed.  Draw number k consumes exactly the k-th 64-bit word of that
stream, so any index range ``[start, stop)`` can be sampled on its own by
advancing the counter to ``start``; merging counts over a disjoint cover
of ``[0, n)`` reproduces the single-pass result bit for bit, which makes
parallel chunked sampling safe and the output independent of chunking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hs import DEFAULT_TOL, Tolerances, as_operator
from .povm import Povm
from .processing import ProcessingFunction

GENERATOR_NAME = "philox4x64"


class ClampedProbabilityWarning(UserWarning):
    """Slightly negative predicted probabilities were clamped to zero."""


@dataclass(frozen=True)
class SampleRun:
    """Outcome counts from ``n_ex`` Born-rule draws with a recorded seed."""

    seed: int
    n_ex: int
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or np.any(counts < 0):
            raise ValueError("counts must be a nonnegative integer vector")
        if int(counts.sum()) != self.n_ex:
            raise ValueError(
                f"counts sum to {int(counts.sum())}, expected n_ex = {self.n_ex}"
            )
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.n_ex


def outcome_distribution(P: Povm, rho) -> np.ndarray:
    """Validated Born-rule distribution ``Tr[rho P_i]``.

    Raises if the probabilities miss unit total by more than
    ``P.tol.lin_solve`` or go negative beyond ``P.tol.psd_slack``;
    negativity within slack is clamped to zero and the vector
    renormalized, with a warning.
    """
    tol = P.tol
    rho = as_operator(rho)
    probs = P.probabilities(rho)
    if abs(float(probs.sum()) - 1.0) > tol.lin_solve:
        raise ValueError(
            f"outcome probabilities sum to {probs.sum():.12g}; "
            "the state is not normalized or the POVM is not complete"
        )
    lo = float(probs.min())
    if lo < -tol.psd_slack:
        raise ValueError(f"outcome probability {lo:.6e} is negative")
    if lo < 0.0:
        warnings.warn(
            f"clamping negative probabilities down to {lo:.3e} and renormalizing",
            ClampedProbabilityWarning,
            stacklevel=2,
        )
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
    return probs


def _uniform_stream(seed: int, start: int, stop: int) -> np.ndarray:
    """Draws ``start`` through ``stop - 1`` of the seed's uniform stream.

    One double consumes one 64-bit word, and ``Philox.advance`` counts in
    blocks of four words, so jump to the enclosing block and discard the
    in-block remainder.
    """
    bg = np.random.Philox(key=seed)
    bg.advance(start // 4)
    gen = np.random.Generator(bg)
    gen.random(start % 4)
    return gen.random(stop - start)


def sample_range(P: Povm, rho, start: int, stop: int, seed: int) -> np.ndarray:
    """Counts from draws ``[start, stop)`` of the seeded outcome stream."""
    if not 0 <= start <= stop:
        raise ValueError("need 0 <= start <= stop")
    probs = outcome_distribution(P, rho)
    edges = np.cumsum(probs)
    edges[-1] = 1.0  # guard against rounding so every uniform lands in range
    outcomes = np.searchsorted(edges, _uniform_stream(seed, start, stop), side="right")
    return np.bincount(outcomes, minlength=len(P)).astype(np.int64)


def sample(P: Povm, rho, n_ex: int, seed: int, *, chunk_size: int | None = None) -> SampleRun:
    """``n_ex`` i.i.d. Born-rule draws; deterministic given the seed.

    ``chunk_size`` bounds the memory of the uniform buffer; the counts do
    not depend on it.
    """
    if n_ex < 1:
        raise ValueError("n_ex must be at least 1")
    if chunk_size is None:
        chunk_size = n_ex
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    counts = np.zeros(len(P), dtype=np.int64)
    for start in range(0, n_ex, chunk_size):
        counts += sample_range(P, rho, start, min(start + chunk_size, n_ex), seed)
    return SampleRun(seed=seed, n_ex=n_ex, counts=counts)


def merge_runs(runs) -> SampleRun:
    """Combine disjoint chunks of one stream into a single run."""
    runs = list(runs)
    if not runs:
        raise ValueError("nothing to merge")
    seed = runs[0].seed
    if any(r.seed != seed for r in runs):
        raise ValueError("runs come from different seeds")
    counts = np.sum([r.counts for r in runs], axis=0)
    return SampleRun(seed=seed, n_ex=int(counts.sum()), counts=counts)


def empirical_estimate(run: SampleRun, c: ProcessingFunction,
                       tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """Sample mean and variance of the processed outcome stream.

    The stream assigns value ``c_i`` to each draw of outcome i; the mean
    estimates the target average and the variance (with the n - 1
    denominator) estimates the per-measurement error, so the standard
    error of the mean is ``sqrt(variance / n_ex)``.
    """
    coeff = np.asarray(c.coefficients)
    if coeff.shape != run.counts.shape:
        raise ValueError(
            f"{len(coeff)} coefficients for {len(run.counts)} outcome counts"
        )
    scale = float(np.max(np.abs(coeff))) or 1.0
    if float(np.max(np.abs(coeff.imag))) > tol.lin_solve * scale:
        raise ValueError("processing coefficients are not real")
    values = coeff.real
    freq = run.frequencies
    mean = float(np.dot(values, freq))
    if run.n_ex < 2:
        return mean, 0.0
    second = float(np.dot(values**2, freq))
    variance = (second - mean**2) * run.n_ex / (run.n_ex - 1)
    return mean, max(variance, 0.0)


def stream_variance(P: Povm, rho, c: ProcessingFunction) -> tuple[float, float]:
    """Population variance and fourth central moment of the processed stream.

    ``var = E[c^2] - E[c]^2`` is the predicted per-measurement error;
    ``mu4`` feeds :func:`variance_band` for acceptance bands on the
    empirical variance.
    """
    probs = outcome_distribution(P, rho)
    values = np.asarray(c.coefficients).real
    mean = float(np.dot(values, probs))
    centered = values - mean
    var = float(np.dot(centered**2, probs))
    mu4 = float(np.dot(centered**4, probs))
    return var, mu4


def variance_band(var: float, mu4: float, n: int) -> float:
    """Standard deviation of the unbiased sample variance at n draws.

    Exact for i.i.d. draws: ``Var(s^2) = (mu4 - var^2 (n-3)/(n-1)) / n``.
    The second term matters when ``mu4`` is close to ``var^2`` (e.g. a
    two-valued stream), where the naive ``(mu4 - var^2)/n`` would predict
    no fluctuation at all.
    """
    if n < 2:
        raise ValueError("need at least two draws for a sample variance")
    return float(np.sqrt(max(mu4 - var**2 * (n - 3) / (n - 1), 0.0) / n))
