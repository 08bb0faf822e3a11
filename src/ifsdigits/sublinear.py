"""Forced-digit construction hitting a prescribed sublinear distinct rate.

An admissible growth profile ``f`` is integer valued, starts at 0, climbs
by steps of 0 or 1, is unbounded, and satisfies ``f(n) log f(n) / n -> 0``.
At the times where ``f`` steps up, the word is *forced* to use the fresh
digit ``K_n + f(n)``; everywhere else it draws a *free* digit from
``{1..K_n}`` with law ``p_k**s`` for the exponent ``s = s(K_n)`` that makes
those powers sum to one.  ``K_n = max(K*, floor(sqrt(f(n))))`` where ``K*``
is the smallest truncation whose exponent reaches ``(1+t)/2``; forced
digits therefore always exceed every available free digit, the distinct
count is sandwiched between ``f(n)`` and ``f(n) + K_n``, and the mass ratio
``mu_t(C_n) / diam(C_n)**t`` decays geometrically.

Weights are used in non-increasing order inside this module: when a model
is not already sorted the sorting permutation is recorded on the schedule.
Schedules, samples and traces work on sorted-order labels;
:meth:`SublinearSchedule.to_model_digits` turns a word into the model's own
digits, which is what the command line writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import as_count, as_integers, as_word
from .errors import (
    DomainError,
    NotAdmissibleError,
    NotInSupportError,
    PrecisionError,
    TiltThresholdError,
)
from .linear import _MAX_WORD_LENGTH
from .occupancy import distinct_counts
from .weights import WeightModel, _falling_from, exponent_root, weights_range

__all__ = [
    "AdmissibleProfile",
    "SublinearSchedule",
    "RatioTrace",
    "make_admissible",
    "profile_from_table",
    "profile_from_spec",
    "threshold_index",
    "build_sublinear_schedule",
]


@dataclass(frozen=True, eq=False)
class AdmissibleProfile:
    """Validated growth profile ``f(0..horizon)`` (integer valued)."""

    values: np.ndarray  # int64, values[0] == 0
    provenance: str

    @property
    def horizon(self) -> int:
        return self.values.size - 1

    def step_times(self) -> np.ndarray:
        """The times at which ``f`` increments (sorted, 1-based)."""
        return np.nonzero(np.diff(self.values) == 1)[0] + 1


def make_admissible(g, provenance: str = "user") -> AdmissibleProfile:
    """Slope-limit ``floor(g)`` into an admissible profile and validate it.

    ``g`` is the array ``g(1), ..., g(horizon)``, finite and nondecreasing, with
    ``horizon >= 10``.  ``f(n) = max(min(f(n-1) + 1, floor(g(n))), 0)`` with ``f(0) = 0``,
    in closed form ``f(n) = n + min(0, min_{m<=n} (max(floor(g(m)), 0) - m))``.
    Violated admissibility clauses raise :class:`NotAdmissibleError` naming the clause.
    """
    gs = np.asarray(g, dtype=np.float64)
    horizon = gs.size
    bad = np.flatnonzero(~np.isfinite(gs))
    if bad.size:
        raise DomainError(f"profile generator is not finite at n={bad[0] + 1}")
    bad = np.flatnonzero(gs[1:] < gs[:-1] - 1e-9)
    if bad.size:
        raise DomainError(f"profile generator decreases at n={bad[0] + 2}")
    values = np.arange(horizon + 1, dtype=np.int64)  # n, until the slack is added
    slack = np.floor(gs)
    np.maximum(slack, 0.0, out=slack)
    slack -= values[1:]
    np.minimum.accumulate(slack, out=slack)
    np.minimum(slack, 0.0, out=slack)
    np.add(values[1:], slack, out=values[1:], casting="unsafe")
    del slack  # freed before the validation's own temporaries
    return _validate_profile(values, provenance)


def profile_from_table(table, provenance: str = "user-table") -> AdmissibleProfile:
    """Validate an explicit table ``f(0), f(1), ..., f(horizon)`` of integers."""
    values = as_integers(list(table), "profile table entries must be integers")
    if values.ndim != 1:
        raise DomainError("profile table must be a flat list of integers")
    return _validate_profile(values, provenance)


def _validate_profile(values: np.ndarray, provenance: str) -> AdmissibleProfile:
    """Check the admissibility clauses on ``values``, an array the caller made, and freeze it."""
    horizon = values.size - 1
    if horizon < 10:
        raise DomainError("profile table must cover n = 0..10 at least")
    if values[0] != 0:
        raise NotAdmissibleError("start clause violated: f(0) must be 0")
    steps = np.diff(values)
    if steps.size and (steps.min() < 0 or steps.max() > 1):
        raise NotAdmissibleError(
            "increment clause violated: f must climb by steps of 0 or 1"
        )
    if values[horizon] <= values[1]:
        raise NotAdmissibleError(
            "growth clause violated: f(horizon) must exceed f(1)"
        )

    def decay(n: int) -> float:
        fn = float(values[n])
        return fn * math.log(fn) / n if fn > 1.0 else 0.0

    n0 = max(1, horizon // 10)
    n1 = max(n0 + 1, int(math.sqrt(n0 * horizon)))
    h0, h1, h2 = decay(n0), decay(n1), decay(horizon)
    # 2% slack absorbs the sawtooth of floor-valued profiles
    if not (h1 <= h0 * 1.02 and h2 <= h1 * 1.02 and h2 < h0):
        raise NotAdmissibleError(
            "decay clause violated: f(n) log f(n) / n must decrease "
            "toward 0 over the last decade of the horizon"
        )
    values.flags.writeable = False
    return AdmissibleProfile(values=values, provenance=provenance)


def profile_from_spec(spec: dict) -> AdmissibleProfile:
    """Wire form: ``{kind: sqrt|power|log|table, beta?, c?, table?, horizon}``."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("profile spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "table":
        table = spec.get("table")
        if not isinstance(table, (list, tuple)):
            raise DomainError("table profile needs a 'table' array")
        return profile_from_table(table)
    horizon = as_count(spec.get("horizon"), "profile spec horizon", least=10)
    if kind == "power":
        beta = spec.get("beta")
        c = spec.get("c", 1.0)
        if not isinstance(beta, (int, float)) or not 0.0 < float(beta) < 1.0:
            raise DomainError("power profile needs beta in (0, 1)")
        if not isinstance(c, (int, float)) or not float(c) > 0.0:
            raise DomainError("power profile needs c > 0")
    elif kind not in ("sqrt", "log"):
        raise DomainError(f"unknown profile kind {kind!r}")
    if horizon > _MAX_WORD_LENGTH:  # refused before any array of horizon length exists
        raise DomainError(f"profile horizon {horizon} exceeds the limit of {_MAX_WORD_LENGTH}")
    if kind == "power":
        # Python's float power: numpy's array power can differ in the last bit (27 ** (1/3) < 3)
        g = np.fromiter((float(c) * k ** float(beta) for k in range(1, horizon + 1)), float, horizon)
        return make_admissible(g, f"builtin-power({beta},{c})")
    g = np.arange(1, horizon + 1, dtype=np.float64)
    if kind == "sqrt":
        # equals math.isqrt exactly below 2**52
        return make_admissible(np.floor(np.sqrt(g, out=g), out=g), "builtin-sqrt")
    # floors equal math.log's at every n <= 2**22
    g += 1.0
    return make_admissible(np.log(g, out=g), "builtin-log")


# The largest truncation threshold_index tries.
_MAX_THRESHOLD = 1 << 20

# The last digit at which the weights may still rise for a sorted table.
_MAX_RISE = 1 << 25

# Weights computed at a time while the largest of the rising head are picked.
_HEAD_CHUNK = 1 << 20


def threshold_index(model: WeightModel, t: float) -> int:
    """Smallest ``K`` with ``s(K) >= (1 + t) / 2`` on the ``K`` largest weights.

    ``s(K)`` solves ``sum_{k<=K} p_(k)**s = 1`` over the non-increasing weight
    table the schedule samples from, and that sum falls as ``s`` grows.  So
    ``s(K)`` reaches the target exactly when ``sum_{k<=K} p_(k)**target >= 1``:
    ``K`` is where the cumulative sum of ``p**target`` first reaches 1, over
    tables of :func:`_largest_weights` that double in size.
    """
    return _threshold_and_head(model, t, _MAX_THRESHOLD)[0]


def _threshold_and_head(model: WeightModel, t: float, count: int):
    """:func:`threshold_index`, and the :func:`_rising_head` of ``count >= _MAX_THRESHOLD`` read."""
    if not 0.0 < t < 1.0:
        raise DomainError("dimension target t must lie in (0, 1)")
    target = 0.5 * (1.0 + t)
    head = _rising_head(model, count)
    for size in (1 << i for i in range(1, _MAX_THRESHOLD.bit_length())):  # 2, 4, .., _MAX_THRESHOLD
        p = _largest_weights(model, head, size)[0]
        if float(p.sum()) >= 1.0 - 1e-15:
            raise DomainError("truncated weights already sum to 1; no root in [0, 1)")
        cum = np.cumsum(p**target)
        if cum[-1] >= 1.0:
            return int(np.searchsorted(cum, 1.0)) + 1, head
    raise TiltThresholdError(f"no truncation below {_MAX_THRESHOLD} reaches exponent {target:g}")


@dataclass(frozen=True, eq=False)
class RatioTrace:
    """Per-position decomposition of ``log(mu_t(C_n) / diam(C_n)**t)``."""

    log_ratio: np.ndarray
    free_part: np.ndarray  # cumulative (s_i - t) log p at free times
    forced_part: np.ndarray  # cumulative -t log p at forced times


@dataclass(frozen=True, eq=False)
class SublinearSchedule:
    """Forced/free digit plan for one (profile, t, model) triple."""

    profile: AdmissibleProfile
    t: float
    k_star: int
    K: np.ndarray  # int64, K_n for n = 1..horizon (index n-1)
    s_of_n: np.ndarray  # float, s(K_n)
    forced_time: np.ndarray  # bool
    forced_digit: np.ndarray  # int64, b_n at forced times, 0 elsewhere
    sorted_weights: np.ndarray  # non-increasing weight table, index = label - 1
    label_permutation: np.ndarray | None  # sorted label -> model digit, or None

    @property
    def horizon(self) -> int:
        return self.profile.horizon

    def to_model_digits(self, word) -> np.ndarray:
        """Map sorted-order labels to the model's own digits (``word`` itself when sorted)."""
        word = as_word(word)
        if self.label_permutation is None:
            return word
        return self.label_permutation[word - 1]

    # -- sampling ---------------------------------------------------------------

    def sample_word(self, n_max: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the first ``n_max`` digits under the product law."""
        if as_count(n_max, "n_max") > self.horizon:
            raise DomainError("n_max outside the profile horizon")
        forced = self.forced_time[:n_max]
        word = np.where(forced, self.forced_digit[:n_max], 0)
        free = ~forced
        u = rng.random(np.count_nonzero(free))
        # K_n is nondecreasing, so each value of K_n holds on one run of positions
        K = self.K[:n_max]
        starts = np.append(0, np.flatnonzero(K[1:] != K[:-1]) + 1)
        drawn = 0
        for start, stop in zip(starts, np.append(starts[1:], n_max)):
            kv = K[start]
            cum = np.cumsum(self.sorted_weights[:kv] ** self.s_of_n[start])
            run = free[start:stop]
            count = np.count_nonzero(run)
            # rounding can end cum a hair below 1, under the largest draws: clamp to label K
            label = np.searchsorted(cum, u[drawn : drawn + count], side="right")
            np.minimum(label, kv - 1, out=label)
            label += 1
            word[start:stop][run] = label
            drawn += count
        return word

    # -- measure ----------------------------------------------------------------

    def ratio_trace(self, word) -> RatioTrace:
        digits = self._validate(word)
        n = digits.size
        forced = self.forced_time[:n]
        logp = self.sorted_weights[digits - 1]
        np.log(logp, out=logp)
        # cumulative (s_i - t) log p over the free times and -t log p over the forced ones
        free_part = self.s_of_n[:n] - self.t
        free_part *= logp
        np.copyto(free_part, 0.0, where=forced)
        np.cumsum(free_part, out=free_part)
        forced_part = logp
        forced_part *= -self.t
        np.copyto(forced_part, 0.0, where=~forced)
        np.cumsum(forced_part, out=forced_part)
        return RatioTrace(
            log_ratio=free_part + forced_part,
            free_part=free_part,
            forced_part=forced_part,
        )

    def sandwich_violations(self, word) -> list[int]:
        """Positions where ``f(n) <= D_n <= f(n) + K_n`` fails (exact)."""
        counts = distinct_counts(word)
        f = self.profile.values[1 : counts.size + 1]
        ok = (f <= counts) & (counts <= f + self.K[: counts.size])
        return [int(i) + 1 for i in np.nonzero(~ok)[0]]

    def _validate(self, word) -> np.ndarray:
        digits = as_word(word)
        if digits.size > self.horizon:
            raise DomainError("word longer than the profile horizon")
        n = digits.size
        forced = self.forced_time[:n]
        if not np.array_equal(digits[forced], self.forced_digit[:n][forced]):
            raise NotInSupportError("a forced position carries the wrong digit")
        if np.any((digits > self.K[:n]) & ~forced):
            raise NotInSupportError("a free digit exceeds its truncation bound")
        return digits


def build_sublinear_schedule(
    model: WeightModel, profile: AdmissibleProfile, t: float
) -> SublinearSchedule:
    """Assemble the forced/free plan for dimension target ``t`` in (0, 1)."""
    horizon = profile.horizon
    f = profile.values
    # K_n and the forced digits K_n + f(n) stay within K* + f(horizon)
    k_star, head = _threshold_and_head(model, t, _MAX_THRESHOLD + int(f[-1]))
    # floor(sqrt(f)) is exact in float64 below 2**52; f stays below 2**22
    K = np.sqrt(f[1:]).astype(np.int64)
    np.maximum(K, k_star, out=K)
    forced_time = np.zeros(horizon, dtype=bool)
    forced_time[profile.step_times() - 1] = True
    forced_digit = K + f[1:]
    forced_digit[~forced_time] = 0
    # A profile built without make_admissible can break these; python -O strips asserts.
    if np.any(K[1:] < K[:-1]):
        raise NotAdmissibleError("truncation bounds must be nondecreasing")
    if np.any(np.diff(forced_digit[forced_time]) <= 0):
        raise NotAdmissibleError("forced digits must strictly increase along the new-digit times")
    kmax = int(max(K.max(), forced_digit.max()))
    sorted_weights, perm = _largest_weights(model, head, kmax)
    starts = np.append(0, np.flatnonzero(K[1:] != K[:-1]) + 1)  # one root per run of equal K_n
    roots = [exponent_root(np.log(sorted_weights[:kv])) for kv in K[starts]]
    s_arr = np.repeat(roots, np.diff(starts, append=horizon))
    for arr in (K, forced_time, forced_digit, s_arr, sorted_weights):
        arr.flags.writeable = False
    return SublinearSchedule(
        profile=profile,
        t=float(t),
        k_star=k_star,
        K=K,
        s_of_n=s_arr,
        forced_time=forced_time,
        forced_digit=forced_digit,
        sorted_weights=sorted_weights,
        label_permutation=perm,
    )


def _rising_head(model: WeightModel, count: int):
    """``(m, weights, digits)``: the weights never rise from digit ``m`` on, and these
    are the ``count`` largest below it, largest first and ties to the smaller digit.
    They are computed ``_HEAD_CHUNK`` digits at a time from ``m`` down, where rising
    weights are largest.  :class:`PrecisionError` past ``_MAX_RISE``, before any weight.
    """
    m = math.ceil(_falling_from(model))
    if m > _MAX_RISE:
        raise PrecisionError(f"the weights rise up to digit {m}, past the limit of {_MAX_RISE}")
    q, digits = np.empty(0), np.empty(0, dtype=np.int64)  # the largest so far, negated: ascending
    for hi in range(m, 1, -_HEAD_CHUNK):
        lo = max(hi - _HEAD_CHUNK, 1)
        chunk = -weights_range(model, lo, hi)
        # once count are kept, a weight enters only if not below the least (a tie by its digit)
        pick = np.flatnonzero(chunk <= (q[-1] if q.size >= count else 0.0))
        if pick.size:
            q, digits = np.concatenate((chunk[pick], q)), np.concatenate((pick + lo, digits))
            pick = np.argsort(q, kind="stable")[:count]  # new digits first: ties keep digit order
            q, digits = q[pick], digits[pick]
    return m, -q, digits


def _largest_weights(model: WeightModel, head, size: int):
    """The ``size`` largest weights, largest first and ties to the smaller digit, and
    their digits, or None for the digits ``1 .. size``: the largest of a
    :func:`_rising_head` of at least ``size`` and of the falling weights of the
    digits ``m .. m + size - 1``, or those alone where ``m = 1``.
    """
    m, head_p, head_digits = head
    p = weights_range(model, m, m + size)
    if m == 1:
        return p, None
    h = min(size, head_p.size)
    p = -np.concatenate((head_p[:h], p))  # negated: a stable ascending sort keeps ties' digit order
    digits = np.argsort(p, kind="stable")[:size]  # positions, made digits in place below
    p = -p[digits]
    in_head = digits < h
    np.add(digits, m - h, out=digits, where=~in_head)  # past the head, position i: digit m + i - h
    digits[in_head] = head_digits[digits[in_head]]
    return p, None if np.array_equal(digits, np.arange(1, size + 1)) else digits
