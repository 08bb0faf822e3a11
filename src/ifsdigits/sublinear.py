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

from .errors import (
    DomainError,
    NotAdmissibleError,
    NotInSupportError,
    PrecisionError,
    TiltThresholdError,
)
from .linear import _MAX_WORD_LENGTH
from .occupancy import distinct_counts
from .weights import WeightModel, exponent_root, partial_sum_exponent, weights_range

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
    n = np.arange(1, horizon + 1)
    slack = np.minimum.accumulate(np.maximum(np.floor(gs), 0.0) - n)
    values = np.zeros(horizon + 1, dtype=np.int64)
    values[1:] = n + np.minimum(slack, 0.0)
    return _validate_profile(values, provenance)


def profile_from_table(table, provenance: str = "user-table") -> AdmissibleProfile:
    """Validate an explicit table ``f(0), f(1), ..., f(horizon)``."""
    return _validate_profile(np.asarray(list(table), dtype=np.int64), provenance)


def _validate_profile(values: np.ndarray, provenance: str) -> AdmissibleProfile:
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
    values = values.copy()
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
    horizon = spec.get("horizon")
    if not isinstance(horizon, int) or horizon < 10:
        raise DomainError("profile spec needs an integer horizon >= 10")
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
    n = np.arange(1, horizon + 1, dtype=np.float64)
    if kind == "sqrt":
        # equals math.isqrt exactly below 2**52
        return make_admissible(np.floor(np.sqrt(n)), "builtin-sqrt")
    if kind == "log":
        # floors equal math.log's at every n <= 2**22
        return make_admissible(np.log(n + 1.0), "builtin-log")
    # Python's float power: numpy's array power can differ in the last bit (27 ** (1/3) < 3)
    g = np.fromiter((float(c) * k ** float(beta) for k in range(1, horizon + 1)), float, horizon)
    return make_admissible(g, f"builtin-power({beta},{c})")


def threshold_index(model: WeightModel, t: float, cap: int = 1 << 20) -> int:
    """Smallest ``K`` with ``partial_sum_exponent(K) >= (1 + t) / 2``."""
    if not 0.0 < t < 1.0:
        raise DomainError("dimension target t must lie in (0, 1)")
    target = 0.5 * (1.0 + t)
    lo, hi = 1, 2
    while partial_sum_exponent(model, hi) < target:
        lo = hi
        hi *= 2
        if hi > cap:
            raise TiltThresholdError(
                f"no truncation below {cap} reaches exponent {target:g}"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if partial_sum_exponent(model, mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


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
        word = np.asarray(word, dtype=np.int64)
        if self.label_permutation is None:
            return word
        return self.label_permutation[word - 1]

    # -- sampling ---------------------------------------------------------------

    def sample_word(self, n_max: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the first ``n_max`` digits under the product law."""
        if not 1 <= n_max <= self.horizon:
            raise DomainError("n_max outside the profile horizon")
        word = np.zeros(n_max, dtype=np.int64)
        forced = self.forced_time[:n_max]
        word[forced] = self.forced_digit[:n_max][forced]
        free_idx = np.nonzero(~forced)[0]
        u = rng.random(free_idx.size)
        ks = self.K[free_idx]
        for kv in np.unique(ks):
            s = self.s_of_n[np.searchsorted(self.K, kv)]  # K_n is nondecreasing
            cum = np.cumsum(self.sorted_weights[:kv] ** s)
            pick = ks == kv
            # rounding can end cum a hair below 1, under the largest draws: clamp to label K
            label = np.searchsorted(cum, u[pick], side="right")
            word[free_idx[pick]] = np.minimum(label, kv - 1) + 1
        return word

    # -- measure ----------------------------------------------------------------

    def ratio_trace(self, word) -> RatioTrace:
        digits = self._validate(word)
        n = digits.size
        forced = self.forced_time[:n]
        logp = np.log(self.sorted_weights[digits - 1])
        free_steps = np.where(forced, 0.0, (self.s_of_n[:n] - self.t) * logp)
        forced_steps = np.where(forced, -self.t * logp, 0.0)
        free_part = np.cumsum(free_steps)
        forced_part = np.cumsum(forced_steps)
        return RatioTrace(
            log_ratio=free_part + forced_part,
            free_part=free_part,
            forced_part=forced_part,
        )

    def sandwich_violations(self, word) -> list[int]:
        """Positions where ``f(n) <= D_n <= f(n) + K_n`` fails (exact)."""
        digits = np.asarray(word, dtype=np.int64)
        counts = distinct_counts(digits)
        f = self.profile.values[1 : digits.size + 1]
        ok = (f <= counts) & (counts <= f + self.K[: digits.size])
        return [int(i) + 1 for i in np.nonzero(~ok)[0]]

    def _validate(self, word) -> np.ndarray:
        digits = np.asarray(word, dtype=np.int64)
        if digits.size > self.horizon:
            raise DomainError("word longer than the profile horizon")
        if digits.size and digits.min() < 1:
            raise DomainError("digits must be positive")
        n = digits.size
        forced = self.forced_time[:n]
        if not np.array_equal(digits[forced], self.forced_digit[:n][forced]):
            raise NotInSupportError("a forced position carries the wrong digit")
        free_digits = digits[~forced]
        if free_digits.size and (free_digits > self.K[:n][~forced]).any():
            raise NotInSupportError("a free digit exceeds its truncation bound")
        return digits


def build_sublinear_schedule(
    model: WeightModel, profile: AdmissibleProfile, t: float
) -> SublinearSchedule:
    """Assemble the forced/free plan for dimension target ``t`` in (0, 1)."""
    if not 0.0 < t < 1.0:
        raise DomainError("dimension target t must lie in (0, 1)")
    horizon = profile.horizon
    f = profile.values
    k_star = threshold_index(model, t)
    # floor(sqrt(f)) is exact in float64 below 2**52; f stays below 2**22
    root_f = np.sqrt(f[1:]).astype(np.int64)
    K = np.maximum(k_star, root_f)
    forced_time = np.zeros(horizon, dtype=bool)
    forced_time[profile.step_times() - 1] = True
    forced_digit = np.where(forced_time, K + f[1:], 0).astype(np.int64)
    forced_vals = forced_digit[forced_time]
    # A profile built without make_admissible can break these; python -O strips asserts.
    if np.any(np.diff(K) < 0):
        raise NotAdmissibleError("truncation bounds must be nondecreasing")
    if np.any(np.diff(forced_vals) <= 0):
        raise NotAdmissibleError(
            "forced digits must strictly increase along the new-digit times"
        )
    kmax = int(max(K.max(), forced_digit.max()))
    sorted_weights, perm = _sorted_weight_table(model, kmax)
    kvals, slot = np.unique(K, return_inverse=True)
    roots = np.asarray([exponent_root(np.log(sorted_weights[:kv])) for kv in kvals])
    s_arr = roots[slot]
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


def _non_increasing(p: np.ndarray) -> bool:
    return bool(np.all(np.diff(p) <= 0.0))


def _sorted_weight_table(model: WeightModel, kmax: int):
    """Weight table in non-increasing order plus the label permutation.

    Returns ``(table, None)`` when the model is already sorted, otherwise
    ``(table, perm)`` with ``perm[label - 1]`` the model digit the sorted
    label refers to.  The search window grows until the settled tail can
    no longer push a weight into the first ``kmax`` slots.
    """
    ext = max(4 * kmax + 64, 2 * len(model.prefix) + kmax)
    while True:
        p = weights_range(model, 1, ext + 1)
        tail = p[ext // 2 :]
        if _non_increasing(tail):
            if _non_increasing(p):
                return p[:kmax].copy(), None
            order = np.argsort(-p, kind="stable")
            sorted_p = p[order]
            if sorted_p[kmax - 1] >= tail[0]:
                if np.array_equal(order[:kmax], np.arange(kmax)):
                    return sorted_p[:kmax].copy(), None
                perm = (order[:kmax] + 1).astype(np.int64)
                return sorted_p[:kmax].copy(), perm
        if ext > 1 << 26:
            raise PrecisionError(
                "weight ordering did not settle within the search window"
            )
        ext *= 4
