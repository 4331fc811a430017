"""Seeded Born-rule outcome sampling and empirical error estimates.

Sampling uses the counter-based Philox generator keyed directly by the
seed.  Draw k reads the k-th 64-bit word w of that stream and takes the
uniform ``u = (w >> 11) * 2**-53``, the double numpy's ``random()``
gives for the same word.  Any index range ``[start, stop)`` can be
sampled on its own by advancing the counter to ``start``, so counts
merged over a disjoint cover of ``[0, n)`` equal the single-pass counts
bit for bit, whatever the cover.  ``sample`` is that single pass: one
distribution, one table and one cut of ``[0, n)`` across the CPUs.

Each draw's outcome is the plain inverse-CDF lookup of its uniform.  A
cell table over [0, 1) finds it without a binary search for almost every
draw; a draw's cell is a shift of its word.  A range is read in fixed
blocks of words, so memory is bounded whatever its length.  Its whole
blocks are cut into ``min(CPUs in the process's affinity set, blocks)``
contiguous runs, counted in parallel threads; integer totals do not
depend on the cut, so neither do the counts.
"""

from __future__ import annotations

import operator
import os
import threading
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
        n_ex = operator.index(self.n_ex)
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or counts.dtype.kind not in "iu" or np.any(counts < 0):
            raise ValueError("counts must be a nonnegative integer vector")
        counts = counts.astype(np.int64)
        if int(counts.sum()) != n_ex:
            raise ValueError(f"counts sum to {int(counts.sum())}, expected n_ex = {n_ex}")
        counts.setflags(write=False)
        object.__setattr__(self, "n_ex", n_ex)
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


# Draws are read in blocks of this many words, so the buffers stay in
# cache and memory does not grow with the range.
_BLOCK = 1 << 16
# Largest cell table, in bits; the table grows with the range up to this.
_MAX_CELL_BITS = 16


def _check_seed(seed) -> int:
    """The seed as a Philox key: an integer in [0, 2**128)."""
    message = f"seed must be an integer in [0, 2**128), got {seed!r}"
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(message) from None
    if not 0 <= seed < 1 << 128:
        raise ValueError(message)
    return seed


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_run(seed: int, lo: int, hi: int, shift: int, edges: np.ndarray,
               split: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell counts and searched outcome counts of draws ``[lo, hi)``.

    ``Philox.advance`` counts in blocks of four words, so jump to the
    enclosing block and discard the in-block remainder.
    """
    bg = np.random.Philox(key=seed)
    bg.advance(lo // 4)
    bg.random_raw(lo % 4)
    per_cell = np.zeros(len(split), dtype=np.int64)
    counts = np.zeros(len(edges), dtype=np.int64)
    for a in range(lo, hi, _BLOCK):
        k = bg.random_raw(min(_BLOCK, hi - a))
        k >>= 11  # the draw's uniform is k * 2**-53
        # floor(u * cells) is k's top bits; ``shift`` is at least 37, which
        # matters because numpy shifts a uint64 by 64 as by 0
        cell = (k >> shift).view(np.intp)
        per_cell += np.bincount(cell, minlength=len(split))
        u = k[split[cell]] * 2.0 ** -53
        counts += np.bincount(np.searchsorted(edges, u, side="right"), minlength=len(edges))
    return per_cell, counts


def sample_range(P: Povm, rho, start: int, stop: int, seed: int) -> np.ndarray:
    """Counts from draws ``[start, stop)`` of the seeded outcome stream.

    Draw k reads word w of the seed's Philox stream and has uniform
    ``u = (w >> 11) * 2**-53`` and outcome ``searchsorted(edges, u,
    "right")`` over the cumulative distribution ``edges``.  A guide table
    (Chen and Asau, 1974) gives every draw that outcome with little
    searching: [0, 1) is cut into ``cells = 2**bits`` equal cells, so a
    draw's cell ``floor(u * cells)`` is exactly ``(w >> 11) >> (53 -
    bits)`` and ``edges * cells`` is exact.  A draw in a cell with no
    edge strictly inside has the outcome of the cell's left end, so only
    the draws in the at most N - 1 split cells are searched.

    The range is read in blocks of ``_BLOCK`` words, and the blocks are
    cut into ``min(CPUs in the process's affinity set, blocks)``
    contiguous runs of whole blocks.  The caller's thread counts the
    first run and one thread each counts the others; a one-block range
    starts no thread.  Integer totals do not depend on the cut, so the
    counts do not depend on the number of CPUs, and an exception in any
    run is raised here once every thread has finished.

    ``start``, ``stop`` and ``seed`` may be any integers, numpy's
    included; a float raises ``TypeError``.  The seed must lie in
    [0, 2**128).
    """
    start, stop = operator.index(start), operator.index(stop)
    seed = _check_seed(seed)
    if not 0 <= start <= stop:
        raise ValueError("need 0 <= start <= stop")
    probs = outcome_distribution(P, rho)
    edges = np.cumsum(probs)
    edges[-1] = 1.0  # guard against rounding so every uniform lands in range
    # a 10-draw range should not pay for a 2^16-cell table
    bits = min(_MAX_CELL_BITS, ((stop - start) // 16).bit_length())
    cells = 1 << bits
    # first[k] counts the edges e <= k/cells, i.e. ceil(e * cells) <= k: the
    # outcome searchsorted gives at the cell's left end.  below[k] counts the
    # edges e < (k+1)/cells, i.e. floor(e * cells) <= k, so the two differ
    # when an edge lies inside the cell.
    scaled = edges * cells
    first = np.cumsum(np.bincount(np.ceil(scaled).astype(np.intp), minlength=cells))[:cells]
    below = np.cumsum(np.bincount(np.floor(scaled).astype(np.intp), minlength=cells))[:cells]
    split = first != below

    blocks = -(-(stop - start) // _BLOCK)
    workers = max(1, min(_cpu_count(), blocks))
    cuts = [min(start + blocks * i // workers * _BLOCK, stop) for i in range(workers + 1)]
    runs = list(zip(cuts, cuts[1:]))
    results: list = [None] * workers

    def count(i: int) -> None:
        try:
            results[i] = _count_run(seed, *runs[i], 53 - bits, edges, split)
        except BaseException as exc:  # re-raised by the caller after the joins
            results[i] = exc

    threads = [threading.Thread(target=count, args=(i,)) for i in range(1, workers)]
    started = []
    try:
        for thread in threads:
            thread.start()
            started.append(thread)
        count(0)
    finally:
        for thread in started:
            thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    per_cell, counts = map(sum, zip(*results))
    whole = ~split
    np.add.at(counts, first[whole], per_cell[whole])
    return counts


def sample(P: Povm, rho, n_ex: int, seed: int, *, chunk_size: int | None = None) -> SampleRun:
    """``n_ex`` i.i.d. Born-rule draws; deterministic given the seed.

    All of ``[0, n_ex)`` is one :func:`sample_range` call: one outcome
    distribution, one guide table and one CPU-wide pass.  ``chunk_size``
    is checked (an integer of at least 1) but splits nothing: the counts
    never depended on it, and the work does not either.
    """
    n_ex = operator.index(n_ex)
    seed = _check_seed(seed)
    if n_ex < 1:
        raise ValueError("n_ex must be at least 1")
    if chunk_size is not None and operator.index(chunk_size) < 1:
        raise ValueError("chunk_size must be at least 1")
    return SampleRun(seed=seed, n_ex=n_ex, counts=sample_range(P, rho, 0, n_ex, seed))


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
