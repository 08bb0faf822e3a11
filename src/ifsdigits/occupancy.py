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

from .errors import DomainError
from .rng import substream
from .weights import (_MAX_DRAWS, DigitSampler, WeightModel, tail_sum, tilted_tail_sum,
                      weights_range)

__all__ = [
    "LawReport",
    "karlin_constant",
    "expected_distinct",
    "distinct_counts",
    "monte_carlo_law",
]


# Each digit up to _DENSE keeps its first position in a dense table; larger
# digits share one overflow slot and are resolved with ``np.unique``.
_DENSE = 1 << 16


def distinct_counts(word) -> np.ndarray:
    """Vector ``D_1..D_n`` of running distinct counts for a digit word."""
    w = np.asarray(word, dtype=np.int64)
    n = w.size
    if n and w.min() < 1:
        raise DomainError("digits must be positive integers")
    first = np.full(_DENSE + 2, n, dtype=np.int64)
    np.minimum.at(first, np.minimum(w, _DENSE + 1), np.arange(n))
    dense = first[1 : _DENSE + 1]
    new = np.zeros(n, dtype=bool)
    new[dense[dense < n]] = True
    if first[_DENSE + 1] < n:
        big = np.flatnonzero(w > _DENSE)
        new[big[np.unique(w[big], return_index=True)[1]]] = True
    return np.cumsum(new, dtype=np.int64)


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
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise DomainError("n must be a positive integer")
    return _expected_distinct_at(model, (int(n),))[0]


def _expected_distinct_at(model: WeightModel, ns: tuple[int, ...]) -> list[float]:
    """:func:`expected_distinct` at every ``n`` in ``ns``, in one pass over the weights.

    The chunk bounds do not depend on ``n``, so each chunk is built once for
    every ``n`` still summing; each value is the one a pass of its own gives.
    """
    totals = [1.0 if n == 1 else 0.0 for n in ns]
    ends = [1 if n == 1 else 0 for n in ns]  # first digit left to the remainder; 0 while summing
    lo = 1
    chunk = 1 << 14
    while not all(ends):
        hi = lo + chunk
        p = weights_range(model, lo, hi)
        log_q = np.log1p(-p)
        for i, n in enumerate(ns):
            if not ends[i]:
                terms = -np.expm1(n * log_q)
                totals[i] += float(terms.sum())
                if terms[-1] < 1e-12 * totals[i] or n * p[-1] < 1e-6:
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
    if n < 1 or trials < 1:
        raise DomainError("n and trials must be positive")
    if n > _MAX_DRAWS:
        raise DomainError(f"n = {n} digits per trial exceeds the limit of {_MAX_DRAWS}")
    cps = tuple(int(c) for c in (checkpoints or _default_checkpoints(n)))
    if any(c < 1 or c > n for c in cps):
        raise DomainError("checkpoints must lie in [1, n]")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise DomainError("checkpoints must increase strictly")
    cps_arr = np.asarray(cps, dtype=np.int64)
    sampler = DigitSampler(model)

    def one_trial(trial: int) -> np.ndarray:
        return distinct_counts(sampler.sample(substream(seed, trial), n))[cps_arr - 1]

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
        n=int(n),
        trials=int(trials),
        seed=int(seed),
        checkpoints=cps,
        means=means,
        sds=sds,
        exact_expectations=exacts,
        karlin=const,
        mean_final_distinct=float(counts[:, -1].mean()),
    )
