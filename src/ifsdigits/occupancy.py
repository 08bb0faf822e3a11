"""Distinct-digit counting and the occupancy growth law.

For digits drawn independently with weights ``p_k ~ C k**-rho`` the number
``D_n`` of distinct digits seen in the first ``n`` draws grows like
``Gamma(1 - 1/rho) * C**(1/rho) * n**(1/rho)`` (Karlin's occupancy law);
for the luroth weights the constant is ``sqrt(pi)``.  This module provides
the running distinct counts of a word, the exact expectation
``E D_n = sum_k (1-(1-p_k)**n)``, the law constant, and a reproducible
Monte Carlo harness with per-trial substreams.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codec import as_count, as_word
from .errors import DomainError
from .rng import substream
from .weights import (_MAX_DRAWS, _SAMPLE_BLOCK, DigitSampler, WeightModel, _float_bits,
                      tail_sum, tilted_tail_sum, weights_range)

__all__ = [
    "LawReport",
    "karlin_constant",
    "expected_distinct",
    "distinct_counts",
    "monte_carlo_law",
]


# Least size of the dense first-position table; digits past the table keep
# (digit, position) records instead.
_DENSE = 1 << 16
_UNSEEN = np.iinfo(np.int64).max


def distinct_counts(word) -> np.ndarray:
    """Vector ``D_1..D_n`` of running distinct counts for a digit word."""
    w = as_word(word)
    n = w.size
    counts = np.zeros(n, dtype=np.int64)
    if n:
        # A table of at most n slots stays within the word's own size.  The word
        # is read a block at a time, so its per-digit temporaries stay block sized.
        first = _unseen_table(max(_DENSE, min(int(w.max()), n)))
        blocks = ((w[i : i + _SAMPLE_BLOCK], np.arange(i, min(i + _SAMPLE_BLOCK, n)))
                  for i in range(0, n, _SAMPLE_BLOCK))
        counts[_first_positions(blocks, first)] = 1
    return np.cumsum(counts, out=counts)


def _unseen_table(slots: int) -> np.ndarray:
    """A first-position table for labels up to ``slots``, with nothing seen: slot
    ``slots + 1`` takes every larger label and every deep draw; no digit is 0."""
    return np.full(slots + 2, _UNSEEN, dtype=np.int64)


def _first_positions(blocks, first: np.ndarray, label=None) -> np.ndarray:
    """Position of each distinct digit's first occurrence, unsorted and 0-based.

    ``blocks`` are ``(labels, positions)`` pairs: labels as
    :meth:`DigitSampler.invert` returns them, with the deep draws negative, and
    their increasing 0-based positions in one word; a block may leave out draws
    whose digit already has its first position.  Labels up to
    ``slots = first.size - 2`` keep their first position in the dense table
    ``first``, which the caller owns and every block folds into, so the caller
    may read it between blocks.  Larger ones, and the deep draws, which exceed
    ``slots`` when read as unsigned, keep (label, position) records in position
    order.  Once the word ends, ``label(digits, at)`` labels the deep records in
    place, and ``np.unique`` resolves them all.
    """
    slots = first.size - 2
    big_digits, big_at = [], []
    for block, at in blocks:
        # the slots read back as int64, which minimum.at indexes by faster than uint64
        np.minimum.at(first, np.minimum(block.view(np.uint64), slots + 1).view(np.int64), at)
        big = np.flatnonzero(block.view(np.uint64) > slots)
        if big.size:
            big_digits.append(block[big])
            big_at.append(at[big])
        del block, at  # before the next block is drawn
    dense = first[1 : slots + 1]
    found = dense[dense != _UNSEEN]
    if big_digits:
        digits, at = np.concatenate(big_digits), np.concatenate(big_at)
        if label is not None:
            label(digits, at)
        # records in position order: the first index of a digit is its first position
        found = np.concatenate((found, at[np.unique(digits, return_index=True)[1]]))
    return found


def karlin_constant(rho: float, C: float) -> float:
    """``Gamma(1 - 1/rho) * C**(1/rho)``, the occupancy law constant."""
    rho = float(rho)
    if not rho > 1.0:
        raise DomainError("occupancy law needs tail index rho > 1")
    if not C > 0.0:
        raise DomainError("power constant C must be positive")
    return math.gamma(1.0 - 1.0 / rho) * C ** (1.0 / rho)


def expected_distinct(model: WeightModel, n: int) -> float:
    """Exact expectation ``sum_k (1 - (1 - p_k)**n)`` of the distinct count.

    Terms are summed directly while they matter (per-term above 1e-12 of
    the running total and ``n * p_k`` above 1e-6); the remainder is bracketed
    by ``n * tail_sum`` and resolved with a second-order correction, keeping
    the result within ~1e-9 relative of the full series.
    """
    return _expected_distinct_at(model, (as_count(n, "n"),))[0]


def _expected_distinct_at(model: WeightModel, ns: tuple[int, ...]) -> list[float]:
    """:func:`expected_distinct` at every ``n`` in ``ns``, in one pass over the weights.

    The chunk bounds do not depend on ``n``, so each chunk is built once for
    every ``n`` still summing; each value is the one a pass of its own gives.
    A chunk is built ``_SAMPLE_BLOCK`` weights at a time, so that its
    temporaries stay in cache.  Its sum is the pairwise tree of its block
    sums: numpy sums a contiguous array pairwise, halving it down to leaves of
    128 entries, so for a chunk of a power of two this tree is the chunk's own
    ``np.sum``, bit for bit.
    """
    totals = [1.0 if n == 1 else 0.0 for n in ns]
    ends = [1 if n == 1 else 0 for n in ns]  # first digit left to the remainder; 0 while summing
    lo = 1
    chunk = 1 << 14
    while not all(ends):
        hi = lo + chunk
        sums = {i: [] for i, end in enumerate(ends) if not end}  # block sums of each n summing
        last = {}  # each n's last term of the latest block
        terms = np.empty(min(chunk, _SAMPLE_BLOCK))
        for start in range(lo, hi, _SAMPLE_BLOCK):
            log_q = weights_range(model, start, min(start + _SAMPLE_BLOCK, hi))
            p_last = float(log_q[-1])
            with np.errstate(divide="ignore"):  # p = 1 takes log1p(-1) = -inf: its term is 1
                np.log1p(np.negative(log_q, out=log_q), out=log_q)
            for i, block_sums in sums.items():
                np.expm1(np.multiply(log_q, ns[i], out=terms), out=terms)
                np.negative(terms, out=terms)
                block_sums.append(float(terms.sum()))
                last[i] = float(terms[-1])
        for i, block_sums in sums.items():
            while len(block_sums) > 1:
                block_sums = [a + b for a, b in zip(block_sums[::2], block_sums[1::2])]
            totals[i] += block_sums[0]
            if last[i] < 1e-12 * totals[i] or ns[i] * p_last < 1e-6:
                ends[i] = hi
        lo = hi
        chunk = min(chunk * 2, 1 << 22)
    for i, (n, end) in enumerate(zip(ns, ends)):
        if n > 1:
            # remainder: sum_{k>=end} (1-(1-p_k)^n) = n*T1 - C(n,2)*T2 + O(n^3 T3)
            t1 = tail_sum(model, end)
            t2 = tilted_tail_sum(model, end, 2.0)
            totals[i] += max(n * t1 - 0.5 * n * (n - 1) * t2, 0.0)
    return totals


@dataclass(frozen=True)
class LawReport:
    """Monte Carlo summary of ``D_n / n**(1/rho)`` along checkpoints."""

    model_desc: str
    rho: float
    n: int
    trials: int
    seed: int
    checkpoints: tuple[int, ...]
    means: tuple[float, ...]  # mean of D_c / c**(1/rho) per checkpoint
    sds: tuple[float, ...]  # sample sd (ddof=1) of the same ratio
    exact_expectations: tuple[float, ...]  # E D_c per checkpoint
    karlin: float | None  # law constant when the model has one
    mean_final_distinct: float


def _default_checkpoints(n: int) -> tuple[int, ...]:
    cps = []
    c = 2
    while c < n:
        cps.append(c)
        c *= 2
    cps.append(n)
    return tuple(cps)


def _new_digit_blocks(sampler: DigitSampler, rng: np.random.Generator, n: int,
                      first: np.ndarray):
    """The ``(labels, positions)`` blocks of one ``n``-draw word for
    :func:`_first_positions`, drawn ``_SAMPLE_BLOCK`` uniforms at a time, that
    leave out the draws which cannot show a new digit.

    Before each block, ``seen`` is the longest run of digits ``1..seen`` that
    all have a first position in ``first``.  Since the draws rise with their
    uniforms, a uniform below ``sampler.threshold(seen)`` draws one of those
    digits and moves no first position, so only the uniforms at or above it are
    labelled and folded.  ``seen`` stays within the dense table, and so within
    the sampler's, so every record past it, deep or not, is still folded.
    """
    seen = 0
    # every block's uniforms, and their comparison with the threshold, reuse one
    # buffer each: a block is folded before the next is drawn
    uniforms = np.empty(min(_SAMPLE_BLOCK, n))
    above = np.empty(uniforms.size, dtype=bool)
    for start in range(0, n, _SAMPLE_BLOCK):
        seen = _seen_run(first, seen)
        c = sampler.threshold(seen)
        u = rng.random(out=uniforms[: min(_SAMPLE_BLOCK, n - start)])
        if c > 0.0:
            # uniforms are nonnegative, so their bits order them as their values do;
            # an int64 comparison is a loop the fold already runs, so the skip
            # maps fewer pages of numpy's code into the peak RSS
            at = np.flatnonzero(np.greater_equal(u.view(np.int64), _float_bits(c), out=above[: u.size]))
            yield sampler.invert(u[at]), np.add(at, start, out=at)
        else:
            yield sampler.invert(u), np.arange(start, start + u.size)


def _seen_run(first: np.ndarray, seen: int) -> int:
    """The largest ``K >= seen`` such that digits ``1..K`` all have a first position
    in the table ``first``, given that digits ``1..seen`` do."""
    rest = first[seen + 1 : -1] == _UNSEEN  # the slots past seen, up to the table's last
    k = int(rest.argmax()) if rest.size else 0  # the first unseen slot, if any
    return seen + k if rest.size and rest[k] else first.size - 2


def monte_carlo_law(
    model: WeightModel,
    n: int,
    trials: int,
    seed: int,
    checkpoints: tuple[int, ...] | None = None,
    threads: int = 1,
) -> LawReport:
    """Simulate distinct-digit growth with substream ``(seed, trial)`` per trial.

    Results are independent of ``threads`` because each trial owns its
    stream and aggregation is by trial index.
    """
    n, trials, threads = as_count(n, "n"), as_count(trials, "trials"), as_count(threads, "threads")
    if n > _MAX_DRAWS:
        raise DomainError(f"n = {n} digits per trial exceeds the limit of {_MAX_DRAWS}")
    cps = tuple(as_count(c, "checkpoint") for c in (checkpoints or _default_checkpoints(n)))
    if any(c > n for c in cps):
        raise DomainError("checkpoints must lie in [1, n]")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise DomainError("checkpoints must increase strictly")
    cps_arr = np.asarray(cps, dtype=np.int64)
    sampler = DigitSampler(model)

    def one_trial(trial: int) -> np.ndarray:
        rng = substream(seed, trial)
        first = _unseen_table(_DENSE)
        first_positions = np.sort(_first_positions(_new_digit_blocks(sampler, rng, n, first),
                                                   first, sampler.label))
        return np.searchsorted(first_positions, cps_arr, side="left")  # D_c: first positions below c

    # More workers than trials or cores buys nothing; pool.map submits every
    # trial at once, so an unclamped count could start that many threads.
    workers = min(threads, trials, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = np.stack(list(pool.map(one_trial, range(trials))))
    else:
        counts = np.stack([one_trial(t) for t in range(trials)])

    ratios = counts / cps_arr ** (1.0 / model.rho)
    means = tuple(float(v) for v in ratios.mean(axis=0))
    if trials > 1:
        sds = tuple(float(v) for v in ratios.std(axis=0, ddof=1))
    else:
        sds = tuple(0.0 for _ in cps)
    exacts = tuple(_expected_distinct_at(model, cps))
    const = None
    if model.power_constant is not None:
        const = karlin_constant(model.rho, model.power_constant)
    return LawReport(
        model_desc=model.describe(),
        rho=model.rho,
        n=n,
        trials=trials,
        seed=int(seed),
        checkpoints=cps,
        means=means,
        sds=sds,
        exact_expectations=exacts,
        karlin=const,
        mean_final_distinct=float(counts[:, -1].mean()),
    )
