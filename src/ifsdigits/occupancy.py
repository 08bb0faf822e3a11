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
from .weights import (_MAX_DRAWS, _NO_DEEP, _SAMPLE_BLOCK, DigitSampler, WeightModel,
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
        blocks = ((w[i : i + _SAMPLE_BLOCK], *_NO_DEEP) for i in range(0, n, _SAMPLE_BLOCK))
        counts[_first_positions(blocks, max(_DENSE, min(int(w.max()), n)))] = 1
    return np.cumsum(counts, out=counts)


def _first_positions(blocks, slots: int, label=None) -> np.ndarray:
    """Position of each distinct digit's first occurrence, unsorted and 0-based.

    ``blocks`` are consecutive pieces of one word, each a triple as
    :meth:`DigitSampler.draw` returns it: labels, and the positions in the
    piece (where the labels read 0) and remaining masses of its deep draws.
    Labels up to ``slots`` keep their first position in a dense table that
    every block folds into; larger ones keep (label, position) records.  Once
    the word ends, ``label`` labels its deep draws into more records, and
    ``np.unique`` resolves them all.
    """
    # slot 0 takes the unlabelled deep draws, slot slots + 1 every larger label
    first = np.full(slots + 2, _UNSEEN, dtype=np.int64)
    big_digits, big_at, deep_at, deep_mass = [], [], [], []
    start = 0
    for block, at_deep, mass in blocks:
        at = np.arange(start, start + block.size)
        np.minimum.at(first, np.minimum(block, slots + 1), at)
        big = np.flatnonzero(block > slots)
        if big.size:
            big_digits.append(block[big])
            big_at.append(at[big])
        if at_deep.size:
            deep_at.append(at_deep + start)
            deep_mass.append(mass)
        start += block.size
    dense = first[1 : slots + 1]
    found = dense[dense != _UNSEEN]
    if deep_at:
        big_at.append(np.concatenate(deep_at))
        big_digits.append(label(big_at[-1], np.concatenate(deep_mass)))
    if big_digits:
        digits, at = np.concatenate(big_digits), np.concatenate(big_at)
        if deep_at:  # the deep records follow the others: put them all in position order
            order = np.argsort(at)
            digits, at = digits[order], at[order]
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
    A chunk is worked on in place and dropped before the next is built.
    """
    totals = [1.0 if n == 1 else 0.0 for n in ns]
    ends = [1 if n == 1 else 0 for n in ns]  # first digit left to the remainder; 0 while summing
    lo = 1
    chunk = 1 << 14
    while not all(ends):
        hi = lo + chunk
        log_q = weights_range(model, lo, hi)
        p_last = float(log_q[-1])
        np.log1p(np.negative(log_q, out=log_q), out=log_q)
        terms = np.empty_like(log_q)
        for i, n in enumerate(ns):
            if not ends[i]:
                np.expm1(np.multiply(log_q, n, out=terms), out=terms)
                np.negative(terms, out=terms)
                totals[i] += float(terms.sum())
                if terms[-1] < 1e-12 * totals[i] or n * p_last < 1e-6:
                    ends[i] = hi
        del log_q, terms
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
        # one block of draws at a time: no array of the word's length is built
        rng = substream(seed, trial)
        blocks = (sampler.draw(rng, min(_SAMPLE_BLOCK, n - start))
                  for start in range(0, n, _SAMPLE_BLOCK))
        first = np.sort(_first_positions(blocks, _DENSE, sampler.label))
        return np.searchsorted(first, cps_arr, side="left")  # D_c: first positions below c

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
