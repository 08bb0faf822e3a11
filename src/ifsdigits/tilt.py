"""Tilted digit laws and cylinder sums over words rich in distinct digits.

For an exponent ``s`` with ``rho * s > 1`` the tilted law is
``q_k = p_k**s / Z(s)`` with ``Z(s) = sum_k p_k**s``.  The cylinder sum

    S_n(s, theta) = sum over words w of length n with
                    #distinct(w) >= ceil(n * theta / 2) of (diam C(w))**s

rewrites exactly as ``Z(s)**n`` times the probability that an iid sample
from ``q`` shows that many distinct values.  The module provides an exact
evaluator on capped alphabets, a dynamic program over (positions filled,
distinct digits used) with an explicit truncation deficit, a Monte Carlo
estimator on the full alphabet, and the binomial bound chain that controls
the probability factor: a word with ``m`` distinct digits has at least
``ceil(m/2)`` positions carrying a digit ``>= ceil(m/2)``, so the
probability is at most a binomial tail, which is at most
``(e * n * Q / r)**r`` with ``r = ceil(theta * n / 4)`` and ``Q`` the
tilted mass of digits ``>= r``.  Rates ``theta`` are read exactly.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .codec import as_count
from .errors import DomainError, EnumerationSizeError, PrecisionError
from .linear import as_rate
from .rng import substream
from .weights import (
    _MAX_DRAWS,
    _NO_DEEP,
    _SAMPLE_BLOCK,
    DigitSampler,
    WeightModel,
    tilted_tail_sum,
    weights_range,
)

__all__ = [
    "CylinderSumRecord",
    "BoundChainRecord",
    "LemmaScanReport",
    "distinct_forces_large_check",
    "distinct_threshold",
    "cylinder_sum_exact",
    "cylinder_sum_mc",
    "cylinder_sums_mc",
    "bound_chain",
]

_EXACT_WORD_LIMIT = 10_000_000
# The exact DP makes cap * (n + 1) row steps, each charged _EXACT_STEP_COST
# for its Python overhead plus its (n + 1) * (min(cap, threshold) + 1) entries.
# The limit keeps a request to seconds and its weight table to 4 MB.
_EXACT_STEP_COST = 4096
_EXACT_COST_LIMIT = 4_000_000_000


# -- the combinatorial lemma ------------------------------------------------------


@dataclass(frozen=True)
class LemmaScanReport:
    tuples_checked: int
    counterexample: tuple | None


def distinct_forces_large_check(n_max: int = 6, value_max: int = 6) -> LemmaScanReport:
    """Exhaustively verify: ``m`` distinct values force ``ceil(m/2)`` positions
    with value ``>= ceil(m/2)``, over every tuple up to the given size.
    """
    n_max, value_max = as_count(n_max, "n_max"), as_count(value_max, "value_max")
    # The scan visits value_max + value_max**2 + ... + value_max**n_max tuples;
    # from value_max = 2 on, the first 64 lengths alone pass the limit.
    lengths = range(1, min(n_max, 64) + 1)
    if (n_max if value_max == 1 else sum(value_max**n for n in lengths)) > _EXACT_WORD_LIMIT:
        raise EnumerationSizeError("lemma scan grid too large")
    checked = 0
    for n in range(1, n_max + 1):
        for tup in itertools.product(range(1, value_max + 1), repeat=n):
            checked += 1
            distinct = len(set(tup))
            for m in range(1, distinct + 1):
                cut = (m + 1) // 2
                if sum(1 for x in tup if x >= cut) < cut:
                    return LemmaScanReport(checked, (tup, m))
    return LemmaScanReport(checked, None)


# -- cylinder sums ----------------------------------------------------------------


def distinct_threshold(n: int, theta) -> int:
    """The distinct-count threshold ``ceil(n * theta / 2)``, with ``theta`` read exactly."""
    return math.ceil(as_count(n, "word length") * as_rate(theta) / 2)


@dataclass(frozen=True)
class CylinderSumRecord:
    n: int
    s: float
    theta: float
    mode: str  # "exact-enumeration" or "monte-carlo"
    value: float
    stderr: float | None
    truncation_deficit: float | None
    log_zeta: float
    prob: float  # tilted probability of the distinct-count event
    trials: int | None = None


def _zeta_power(zeta: float, n: int) -> float:
    """``zeta**n``, or :class:`DomainError` unless it is a normal float."""
    try:
        power = zeta**n
    except OverflowError:
        power = math.inf
    if not sys.float_info.min <= power < math.inf:
        raise DomainError(
            f"Z(s)**n is not a normal float: Z(s) = {zeta!r}, n = {n}"
        )
    return power


def _distinct_probability(w: np.ndarray, n: int, threshold: int) -> float:
    """``P(D_n >= threshold)`` for ``n`` iid draws from ``w / w.sum()``.

    ``dp[i, d]`` is the probability that the digits visited so far fill ``i``
    positions with ``d`` distinct values (``d >= threshold`` merged).  Digit
    ``k`` then takes a Binomial(n - i, w_k / sum_{j>=k} w_j) count, built by
    Pascal's rule, so every entry is a sum of nonnegative terms in [0, 1].
    """
    tails = np.cumsum(w[::-1])[::-1]
    free = np.arange(n, -1, -1)  # n - i
    dp = np.zeros((n + 1, threshold + 1))
    dp[0, 0] = 1.0
    pmf = np.empty(n + 1)
    for wk, total, rest in zip(w, tails, np.append(tails[1:], 0.0)):
        if wk == 0.0:
            continue
        r, stay = wk / total, rest / total
        moved = np.zeros_like(dp)  # the digit occurs: one more distinct value
        moved[:, 1:] = dp[:, :-1]
        moved[:, threshold] += dp[:, threshold]
        new = dp * (stay**free)[:, None]  # the digit takes no position
        pmf[:] = 0.0
        pmf[0] = 1.0
        for m in range(1, n + 1):  # pmf[c]: c of m free positions take the digit
            step = pmf[:m] * r
            pmf[:m] *= stay
            pmf[1 : m + 1] += step
            new[n - m + 1 :] += pmf[1 : m + 1, None] * moved[n - m]
        dp = new
    return float(dp[n, threshold])


def cylinder_sum_exact(
    model: WeightModel, n: int, s: float, theta: float, alphabet_cap: int
) -> CylinderSumRecord:
    """Exact ``S_n(s, theta)`` over words from a capped alphabet.

    Dynamic programming over (positions filled, distinct digits used); words
    using a digit above the cap are excluded, and the omitted mass is
    bracketed by ``n * (tilted tail past the cap) * Z(s)**(n-1)``.  Both the
    capped and the full ``Z(s)**n`` must be normal floats and that bracket
    finite.
    """
    n, alphabet_cap = as_count(n, "word length"), as_count(alphabet_cap, "alphabet cap")
    threshold = distinct_threshold(n, theta)
    cost = alphabet_cap * (n + 1) * (
        _EXACT_STEP_COST + (n + 1) * (min(alphabet_cap, threshold) + 1)
    )
    if cost > _EXACT_COST_LIMIT:
        raise EnumerationSizeError(
            f"exact mode at n = {n}, cap = {alphabet_cap} exceeds its size limit"
        )
    tail = tilted_tail_sum(model, alphabet_cap + 1, s)
    w = weights_range(model, 1, alphabet_cap + 1) ** s
    z_capped = float(w.sum())
    z_full = z_capped + tail
    z_capped_n = _zeta_power(z_capped, n)
    _zeta_power(z_full, n)
    deficit = n * tail * z_full ** (n - 1)
    if not math.isfinite(deficit):
        raise DomainError(
            f"truncation deficit n * tail * Z(s)**(n-1) is not finite: n = {n}, "
            f"tail = {tail!r}, Z(s) = {z_full!r}"
        )
    prob = _distinct_probability(w, n, threshold) if threshold <= min(alphabet_cap, n) else 0.0
    return CylinderSumRecord(
        n=n,
        s=float(s),
        theta=float(theta),
        mode="exact-enumeration",
        value=z_capped_n * prob,
        stderr=None,
        truncation_deficit=deficit,
        log_zeta=math.log(z_full),
        prob=prob,
    )


def cylinder_sum_mc(
    model: WeightModel,
    n: int,
    s: float,
    theta: float,
    trials: int,
    seed: int,
) -> CylinderSumRecord:
    """Monte Carlo ``S_n``: :func:`cylinder_sums_mc` at the one length ``n``."""
    return cylinder_sums_mc(model, (n,), s, theta, trials, seed)[0]


def cylinder_sums_mc(
    model: WeightModel,
    ns,
    s: float,
    theta: float,
    trials: int,
    seed: int,
) -> list[CylinderSumRecord]:
    """Monte Carlo ``S_n = Z(s)**n * P(distinct count >= threshold)`` for each ``n`` of ``ns``.

    Words are drawn iid from the tilted law over the full alphabet; each
    estimate and its binomial standard error are scaled by ``Z(s)**n``.
    Every length reads its ``n * trials`` draws from the start of one
    stream, so the stream is drawn once, in blocks of whole words of the
    longest length, and each shorter length reads a prefix of it.  Every
    length is validated before the first draw.  Deterministic per seed.
    """
    ns = [as_count(n, "word length") for n in ns]
    if not ns:
        raise DomainError("cylinder sums need at least one word length")
    trials = as_count(trials, "trials")
    for n in ns:
        if n > _MAX_DRAWS:
            raise DomainError(f"word length n = {n} exceeds the limit of {_MAX_DRAWS}")
    thresholds = [distinct_threshold(n, theta) for n in ns]
    zeta = tilted_tail_sum(model, 1, s)
    scales = [_zeta_power(zeta, n) for n in ns]
    sampler = DigitSampler(model, s=s)
    rng = substream(seed, 0x7117)
    longest = max(ns)
    block = max(1, _SAMPLE_BLOCK // longest) * longest
    # the last of the longest lengths sorts each block in place, so it reads
    # the block after every other length has copied its share
    order = sorted(range(len(ns)), key=ns.__getitem__)
    hits = [0] * len(ns)
    carry = [(np.empty(0, dtype=np.int64), *_NO_DEEP)] * len(ns)
    for start in range(0, longest * trials, block):
        labels, at, mass = sampler.draw(rng, min(block, longest * trials - start))
        for i in order:
            take = min(labels.size, ns[i] * trials - start)
            if take <= 0:
                continue
            if i == order[-1]:  # a whole number of its words, and no carry
                scope = labels, at, mass
            else:
                cut = np.searchsorted(at, take)
                held = carry[i][0].size
                scope = (np.concatenate((carry[i][0], labels[:take])),
                         np.concatenate((carry[i][1], at[:cut] + held)),
                         np.concatenate((carry[i][2], mass[:cut])))
            found, carry[i] = _count_rich_words(sampler, ns[i], thresholds[i], *scope)
            hits[i] += found
        del labels, at, mass, scope  # free this block before the next one is drawn
    records = []
    for n, scale, found in zip(ns, scales, hits):
        phat = found / trials
        se = math.sqrt(phat * (1.0 - phat) / trials)
        records.append(CylinderSumRecord(
            n=n,
            s=float(s),
            theta=float(theta),
            mode="monte-carlo",
            value=scale * phat,
            stderr=scale * se,
            truncation_deficit=None,
            log_zeta=math.log(zeta),
            prob=phat,
            trials=trials,
        ))
    return records


def _count_rich_words(sampler, n, threshold, labels, at, mass):
    """Words of ``labels`` with at least ``threshold`` distinct digits, and the draws past them.

    ``labels`` holds draws from :meth:`DigitSampler.draw`, whose deep draws
    at ``at`` have masses ``mass``.  Its whole words of length ``n`` are
    labelled in one scope and sorted in place; the incomplete last word is
    returned unlabelled, as ``(labels, at, mass)``, to lead the next block.
    """
    whole = labels.size - labels.size % n
    cut = np.searchsorted(at, whole)
    rest = (labels[whole:].copy(), at[cut:] - whole, mass[cut:])
    words = labels[:whole]
    if cut:
        words[at[:cut]] = sampler.label(at[:cut], mass[:cut])
    words = words.reshape(-1, n)
    words.sort(axis=1)
    distinct = 1 + np.count_nonzero(words[:, 1:] != words[:, :-1], axis=1)
    return int(np.count_nonzero(distinct >= threshold)), rest


# -- the bound chain ---------------------------------------------------------------


@dataclass(frozen=True)
class BoundChainRecord:
    n: int
    s: float
    theta: float
    threshold: int  # distinct-count event: D_n >= threshold
    r: int  # binomial positions: ceil(theta n / 4)
    q_tail: float  # tilted mass of digits >= r
    log_zeta: float
    log_binomial_bound: float  # ln (e n q / r) ** r, may be positive (vacuous)
    log_sum_bound: float  # n ln Z + the binomial log-bound


def bound_chain(model: WeightModel, n: int, s: float, theta: float) -> BoundChainRecord:
    """Evaluate the binomial bound on the tilted distinct-count probability.

    With ``r = ceil(theta n / 4)`` and ``Q`` the tilted mass of digits
    ``>= r``, the probability of the distinct-count event is at most
    ``(e n Q / r) ** r``; :class:`PrecisionError` where ``Q`` underflows to 0.
    """
    n = as_count(n, "word length")
    r = max(math.ceil(n * as_rate(theta) / 4), 1)
    zeta = tilted_tail_sum(model, 1, s)
    q_tail = tilted_tail_sum(model, r, s) / zeta
    if q_tail == 0.0:
        raise PrecisionError(f"the tilted tail from digit r = {r} underflows to 0: no bound")
    log_bound = r * (1.0 + math.log(n) + math.log(q_tail) - math.log(r))
    return BoundChainRecord(
        n=n,
        s=float(s),
        theta=float(theta),
        threshold=distinct_threshold(n, theta),
        r=r,
        q_tail=q_tail,
        log_zeta=math.log(zeta),
        log_binomial_bound=log_bound,
        log_sum_bound=n * math.log(zeta) + log_bound,
    )
