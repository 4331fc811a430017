"""Seeded Born-rule outcome sampling and empirical error estimates.

Sampling uses the counter-based Philox generator keyed directly by the
seed.  Draw number k consumes exactly the k-th 64-bit word of that
stream, so any index range ``[start, stop)`` can be sampled on its own by
advancing the counter to ``start``; merging counts over a disjoint cover
of ``[0, n)`` reproduces the single-pass result bit for bit, which makes
parallel chunked sampling safe and the output independent of chunking.

Each draw's outcome is the plain inverse-CDF lookup of its uniform; a
cell table over [0, 1) finds it without a binary search for almost every
draw.  A range is read in fixed private blocks of uniforms, so memory is
bounded whatever its length.
"""

from __future__ import annotations

import operator
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


# Draws are read in blocks of this many uniforms, so the buffers stay in
# cache and memory does not grow with the range.
_BLOCK = 1 << 16
# Largest cell table, in bits; the table grows with the range up to this.
_MAX_CELL_BITS = 16


def _stream_at(seed: int, start: int) -> np.random.Generator:
    """Generator positioned at draw ``start`` of the seed's uniform stream.

    One double consumes one 64-bit word, and ``Philox.advance`` counts in
    blocks of four words, so jump to the enclosing block and discard the
    in-block remainder.  Successive ``random`` calls continue the stream.
    """
    bg = np.random.Philox(key=seed)
    bg.advance(start // 4)
    gen = np.random.Generator(bg)
    gen.random(start % 4)
    return gen


def sample_range(P: Povm, rho, start: int, stop: int, seed: int) -> np.ndarray:
    """Counts from draws ``[start, stop)`` of the seeded outcome stream.

    Draw k with uniform u has outcome ``searchsorted(edges, u, "right")``
    over the cumulative distribution ``edges``.  A guide table (Chen and
    Asau, 1974) gives every draw that outcome with little searching:
    [0, 1) is cut into ``cells`` equal cells, a power of two so that
    ``u * cells`` and ``edges * cells`` are exact.  A draw in a cell with
    no edge strictly inside has the outcome of the cell's left end, so
    only the draws in the at most N - 1 split cells are searched.
    ``start`` and ``stop`` may be any integers, numpy's included; a float
    raises ``TypeError``.
    """
    start, stop = operator.index(start), operator.index(stop)
    if not 0 <= start <= stop:
        raise ValueError("need 0 <= start <= stop")
    probs = outcome_distribution(P, rho)
    edges = np.cumsum(probs)
    edges[-1] = 1.0  # guard against rounding so every uniform lands in range
    # a 10-draw range should not pay for a 2^16-cell table
    cells = 1 << min(_MAX_CELL_BITS, ((stop - start) // 16).bit_length())
    # first[k] counts the edges e <= k/cells, i.e. ceil(e * cells) <= k: the
    # outcome searchsorted gives at the cell's left end.  below[k] counts the
    # edges e < (k+1)/cells, i.e. floor(e * cells) <= k, so the two differ
    # when an edge lies inside the cell.
    scaled = edges * cells
    first = np.cumsum(np.bincount(np.ceil(scaled).astype(np.intp), minlength=cells))[:cells]
    below = np.cumsum(np.bincount(np.floor(scaled).astype(np.intp), minlength=cells))[:cells]
    split = first != below

    per_cell = np.zeros(cells, dtype=np.int64)
    counts = np.zeros(len(edges), dtype=np.int64)
    u = np.empty(min(_BLOCK, stop - start))
    cell = np.empty(len(u), dtype=np.intp)
    gen = _stream_at(seed, start)
    for lo in range(start, stop, _BLOCK):
        m = min(_BLOCK, stop - lo)
        draws, index = u[:m], cell[:m]
        gen.random(out=draws)
        np.multiply(draws, cells, out=index, casting="unsafe")
        per_cell += np.bincount(index, minlength=cells)
        searched = np.searchsorted(edges, draws[split[index]], side="right")
        counts += np.bincount(searched, minlength=len(edges))
    whole = ~split
    np.add.at(counts, first[whole], per_cell[whole])
    return counts


def sample(P: Povm, rho, n_ex: int, seed: int, *, chunk_size: int | None = None) -> SampleRun:
    """``n_ex`` i.i.d. Born-rule draws; deterministic given the seed.

    ``chunk_size`` only splits ``[0, n_ex)`` into :func:`sample_range`
    calls; memory is bounded by that function's internal block either way,
    and the counts do not depend on it.
    """
    n_ex = operator.index(n_ex)
    if n_ex < 1:
        raise ValueError("n_ex must be at least 1")
    chunk_size = n_ex if chunk_size is None else operator.index(chunk_size)
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    counts = np.zeros(len(P), dtype=np.int64)
    for start in range(0, n_ex, chunk_size):
        counts += sample_range(P, rho, start, min(start + chunk_size, n_ex), seed)
    return SampleRun(seed=seed, n_ex=n_ex, counts=counts)


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
