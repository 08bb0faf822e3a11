"""Block concatenation forcing a prescribed linear distinct-digit rate.

Words are built level by level.  Level ``j`` contributes a block of length
``2**j`` over its own dyadic alphabet ``[2**(j-1) b, 2**j b)`` (alphabets of
different levels are disjoint), and inside a block the running number of
distinct digits is pinned to the profile ``r(t) = ceil(theta * t)``: at a
*new* time the block uses a fresh alphabet symbol, at a *repeat* time it
reuses one of the ``r(t-1)`` symbols already seen.  The profile is the same
at every level, so a schedule keeps one.  Concatenating the blocks gives
points whose distinct-digit count satisfies ``theta*n <= D_n < theta*n + j``
at every position ``n`` of level ``j``.

The number of admissible blocks at a level factorizes as a falling
factorial (for the new times) times the product of ``r(t-1)`` over repeat
times; the uniform measure on infinite concatenations is the product of
the per-level uniform block choices.  One walk over the levels,
``BlockSchedule._walk``, validates a word and sums the log choice counts
(``N - r(t-1)`` at a new time, ``r(t-1)`` at a repeat time) into the log
mass that ``log_mass``, ``local_dimension`` and :func:`point_trace` read.
Rates ``theta`` given as floats are read as their shortest decimal literal
so profile ceilings are exact.  Words are limited to ``2**22`` digits
(depth 21).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .codec import CSV_CHUNK_ROWS, as_count, as_word
from .errors import (
    DepthError,
    DomainError,
    EnumerationSizeError,
    InfeasibleError,
    NotInSupportError,
)
from .occupancy import distinct_counts
from .weights import WeightModel, log_weights_of, potter_scan

__all__ = [
    "BlockProfile",
    "BlockCount",
    "BlockSchedule",
    "as_rate",
    "distinctness_profile",
    "count_blocks",
    "enumerate_blocks",
    "build_block_schedule",
    "point_trace",
    "sandwich_violations",
]

_EXACT_COUNT_MAX_LEN = 2048
# Longest word a schedule may describe: 2**(depth+1) - 2 digits, so depth <= 21.
_MAX_WORD_LENGTH = 1 << 22


def as_rate(theta) -> Fraction:
    """Normalize a target rate to an exact ``Fraction`` in ``(0, 1]``.

    Floats are interpreted through their shortest decimal representation,
    so ``as_rate(0.3) == Fraction(3, 10)``.  NaN and infinite rates raise
    :class:`DomainError`.
    """
    try:
        theta = Fraction(str(theta)) if isinstance(theta, float) else Fraction(theta)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"the rate theta must be a finite number; got {theta!r}") from exc
    if not 0 < theta <= 1:
        raise DomainError("the rate theta must lie in (0, 1]")
    return theta


@dataclass(frozen=True, eq=False)
class BlockProfile:
    """Distinctness profile ``r(t) = ceil(theta t)`` for ``t = 0..L``."""

    r: np.ndarray  # int64, index t in [0, L]
    is_new: np.ndarray  # bool, True where r steps up; index 0 unused
    new_count: int  # r(L)


def distinctness_profile(theta, L: int) -> BlockProfile:
    L = as_count(L, "block length")
    theta = as_rate(theta)
    num, den = theta.numerator, theta.denominator
    if num * L + den - 1 < 2**63:
        arr = (num * np.arange(L + 1, dtype=np.int64) + (den - 1)) // den
    else:  # num * t would overflow int64: exact Python integers
        arr = np.asarray([(num * t + den - 1) // den for t in range(L + 1)], dtype=np.int64)
    is_new = np.concatenate(([False], np.diff(arr) > 0))
    return BlockProfile(r=arr, is_new=is_new, new_count=int(arr[L]))


@dataclass(frozen=True)
class BlockCount:
    log_count: float
    exact: int | None


def count_blocks(N: int, L: int, theta) -> BlockCount:
    """Number of admissible blocks of length ``L`` over ``N`` symbols.

    Equals ``N! / (N - m)!`` times the product of ``r(t-1)`` over repeat
    times, where ``m = ceil(theta L)``.  Exact value reported for block
    lengths up to 2048; the log form always.
    """
    N = as_count(N, "alphabet size")
    prof = distinctness_profile(theta, L)
    m = prof.new_count
    if m > N:
        raise InfeasibleError(
            f"no admissible block: profile needs {m} distinct symbols, alphabet has {N}"
        )
    prev = prof.r[:-1][~prof.is_new[1:]]  # r(t-1) at the repeat times t
    # Falling factorial summed term by term: the lgamma difference cancels
    # catastrophically once N dwarfs the float64 mantissa.
    log_fall = float(np.log(float(N) - np.arange(m, dtype=np.float64)).sum())
    log_count = float(log_fall + np.log(prev).sum())
    exact = None
    if prof.r.size - 1 <= _EXACT_COUNT_MAX_LEN:
        exact = math.perm(N, m) * math.prod(prev.tolist())
        if exact.bit_length() > 128:
            exact = None
    return BlockCount(log_count=log_count, exact=exact)


def enumerate_blocks(N: int, L: int, theta, alphabet=None, limit: int = 2_000_000):
    """Yield every admissible block (deterministic DFS order).

    Intended for enumeration oracles; refuses to start when the count
    exceeds ``limit``.
    """
    N, limit = as_count(N, "alphabet size"), as_count(limit, "limit")
    prof = distinctness_profile(theta, L)
    if prof.new_count > N:
        return
    prev = prof.r[:-1][~prof.is_new[1:]]  # r(t-1) at the repeat times t
    total = 1
    # the count's factors, multiplied only until the product passes the limit
    for factor in chain(range(N, N - prof.new_count, -1), prev[prev > 1].tolist()):
        total *= factor
        if total > limit:
            raise EnumerationSizeError(f"the block count exceeds the limit {limit}")
    symbols = tuple(range(1, N + 1)) if alphabet is None else tuple(alphabet)
    if len(symbols) != N:
        raise DomainError("alphabet size mismatch")
    word = [0] * L
    seen: list[int] = []
    seen_set: set[int] = set()

    def rec(t: int):
        if t > L:
            yield tuple(word)
            return
        if prof.is_new[t]:
            for a in symbols:
                if a in seen_set:
                    continue
                word[t - 1] = a
                seen.append(a)
                seen_set.add(a)
                yield from rec(t + 1)
                seen.pop()
                seen_set.remove(a)
        else:
            for a in tuple(seen):
                word[t - 1] = a
                yield from rec(t + 1)

    yield from rec(1)


def _levels(n: int) -> np.ndarray:
    """Level ``bit_length(m + 1) - 1`` of each position ``m = 1..n``: level ``j`` holds ``2**j``."""
    top = (n + 1).bit_length() - 1  # the level of position n
    ends = np.minimum((2 << np.arange(top + 1)) - 2, n)  # word length after each level
    return np.repeat(np.arange(1, top + 1), np.diff(ends))


@dataclass(frozen=True, eq=False)
class BlockSchedule:
    """Level schedule for one rate/model pair, with the uniform block measure."""

    model: WeightModel
    theta: Fraction
    k1: int
    base: int  # max(ceil(2 theta), k1): level j draws from window(j)
    depth: int
    profile: BlockProfile  # r(t) for t <= 2**depth; level j reads r[: 2**j + 1]

    def window(self, j: int) -> range:
        """Alphabet of level ``j``: ``[2**(j-1) base, 2**j base)``."""
        if as_count(j, "level") > self.depth:
            raise DomainError(f"level {j} outside schedule depth {self.depth}")
        return range(self.base << (j - 1), self.base << j)

    def boundary(self, j: int) -> int:
        """Word length after ``j`` full blocks: ``2**(j+1) - 2``."""
        if as_count(j, "level", least=0) > self.depth:
            raise DomainError("level outside schedule")
        return (1 << (j + 1)) - 2

    # -- sampling -------------------------------------------------------------

    def sample_block(self, j: int, rng: np.random.Generator) -> np.ndarray:
        """One uniform admissible block at level ``j``."""
        window = self.window(j)
        length = 1 << j
        r = self.profile.r
        new_syms = window.start + rng.choice(len(window), size=int(r[length]), replace=False)
        digits = np.zeros(length, dtype=np.int64)
        new_mask = self.profile.is_new[1 : length + 1]
        digits[new_mask] = new_syms
        repeat_t = np.nonzero(~new_mask)[0] + 1
        if repeat_t.size:
            pool = r[repeat_t - 1]  # always >= 1 (t = 1 is a new time)
            idx = rng.integers(0, pool)
            digits[~new_mask] = new_syms[idx]
        return digits

    def sample_word(self, depth: int, rng: np.random.Generator) -> np.ndarray:
        """Concatenation of one sampled block per level ``1..depth``."""
        if as_count(depth, "depth") > self.depth:
            raise DomainError("depth outside schedule")
        word = np.empty(self.boundary(depth), dtype=np.int64)
        for j in range(1, depth + 1):
            word[self.boundary(j - 1) : self.boundary(j)] = self.sample_block(j, rng)
        return word

    # -- measure --------------------------------------------------------------

    def log_mass(self, word) -> float:
        """Log of the uniform-concatenation mass of the cylinder at ``word``.

        The word may stop mid-block; all admissible completions of the
        current block count toward the mass.  Inadmissible words raise
        :class:`NotInSupportError`.
        """
        log_mass = self._walk(as_word(word))[1]
        return float(log_mass[-1]) if log_mass.size else 0.0

    def local_dimension(self, word) -> float:
        """``log mass / log diameter`` at a block-aligned word."""
        digits = as_word(word)
        n = digits.size
        if n == 0:
            raise DomainError("local dimension is undefined for the empty word")
        # Block boundaries are the lengths 2**(j+1) - 2, where n + 2 is a power of two.
        if n > self.boundary(self.depth) or (n + 2) & (n + 1):
            raise DomainError("local dimension needs a block-aligned word")
        log_diam = float(np.sum(log_weights_of(self.model, digits)))
        return self.log_mass(digits) / log_diam

    def _walk(self, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Validate ``as_word`` digits; return each position's distinct count and log mass.

        Levels are walked in order.  The first with an inadmissible position
        raises :class:`NotInSupportError`, its window checked before its
        new/reuse times; a word past the schedule depth raises :class:`DepthError`.
        """
        distinct = distinct_counts(digits)
        n = min(digits.size, self.boundary(self.depth))
        r, is_new = self.profile.r, self.profile.is_new
        logs = np.empty(n)
        for j in range(1, self.depth + 1):
            lo, hi = self.boundary(j - 1), min(self.boundary(j), n)
            if lo >= hi:
                break
            size = self.base << (j - 1)  # window(j) = [size, 2 size)
            block = digits[lo:hi]
            if ((block < size) | (block >= 2 * size)).any():
                window = self.window(j)
                raise NotInSupportError(
                    f"level {j} digits must lie in [{window.start}, {window.stop})"
                )
            # Windows are disjoint, so up to the first level with a digit outside
            # its window, a block's own running distinct count follows r(t)
            # exactly when every new and repeat time is respected.
            own = distinct[lo:hi] - (distinct[lo - 1] if lo else 0)
            wrong = own != r[1 : hi - lo + 1]
            if wrong.any():
                t = int(np.argmax(wrong)) + 1
                rule = "introduce a new digit" if is_new[t] else "reuse a seen digit"
                raise NotInSupportError(f"level {j} position {t} must {rule}")
            # math.log of the choice counts, a chunk of times at once; prev
            # holds r(t - 1) for the times t = a + 1, a + 2, ...
            for a in range(0, hi - lo, CSV_CHUNK_ROWS):
                prev = r[a : min(a + CSV_CHUNK_ROWS, hi - lo)]
                choices = np.where(is_new[a + 1 : a + 1 + prev.size], size - prev, prev)
                logs[lo + a : lo + a + prev.size] = np.fromiter(
                    map(math.log, choices.tolist()), dtype=np.float64, count=prev.size)
        if n < distinct.size:
            raise DepthError("word runs past the schedule depth")
        np.cumsum(logs, out=logs)
        # 0.0 - x keeps +0.0 while every choice so far was forced (-x gives -0.0).
        return distinct, np.subtract(0.0, logs, out=logs)


def build_block_schedule(
    model: WeightModel, theta, depth: int, k1: int | None = None
) -> BlockSchedule:
    """Build the level schedule for rate ``theta`` down to ``depth`` blocks.

    ``k1`` defaults to the certified start index of a dyadic ratio scan with
    ``epsilon = 1``.  Alphabets are the dyadic windows
    ``[2**(j-1) * b, 2**j * b)`` with ``b = max(m_1, k1)`` and
    ``m_1 = ceil(2 theta)``, pairwise disjoint by construction.  Every level
    is feasible: it needs ``ceil(theta 2**j) <= 2**(j-1) m_1 <= 2**(j-1) b``
    distinct symbols, at most its window's size.
    """
    theta = as_rate(theta)
    depth = as_count(depth, "depth")
    word_length = (1 << (depth + 1)) - 2
    if word_length > _MAX_WORD_LENGTH:
        raise DepthError(
            f"depth {depth} needs words of {word_length} digits, "
            f"over the limit of {_MAX_WORD_LENGTH} (depth 21)"
        )
    k1 = potter_scan(model, 1.0).k_eps if k1 is None else as_count(k1, "k1")
    m1 = -((-2 * theta.numerator) // theta.denominator)  # ceil(2 theta)
    base = max(m1, k1)
    for j in range(1, depth + 1):
        if base << j > 1 << 62:
            raise DepthError(f"alphabet indices overflow at level {j}")
    return BlockSchedule(
        model=model,
        theta=theta,
        k1=k1,
        base=base,
        depth=depth,
        profile=distinctness_profile(theta, 1 << depth),
    )


def point_trace(schedule: BlockSchedule, word) -> dict[str, np.ndarray]:
    """Per-position trace columns for an admissible word.

    Columns: position, distinct count, rate target ``theta*n``, the upper
    bound ``theta*n + j`` with ``j`` the current level, cumulative log mass
    under the uniform block measure, cumulative log diameter, and their
    ratio.  The mass is accumulated one conditional choice at a time, so a
    word ending mid-block costs no extra enumeration.
    """
    digits = as_word(word)
    if digits.size == 0:
        raise DomainError("trace needs a nonempty word")
    counts, log_mass = schedule._walk(digits)
    log_diam = log_weights_of(schedule.model, digits)
    np.cumsum(log_diam, out=log_diam)
    n = np.arange(1, digits.size + 1)
    target = float(schedule.theta) * n
    return {
        "n": n,
        "distinct": counts,
        "target": target,
        "upper": target + _levels(digits.size),
        "log_mass": log_mass,
        "log_diam": log_diam,
        "local_dim": log_mass / log_diam,
    }


def sandwich_violations(theta, word) -> list[int]:
    """Positions ``n`` where ``theta*n <= D_n < theta*n + J(n)`` fails.

    ``J(n)`` is the number of blocks spanned by ``n`` positions, i.e. the
    level index ``bit_length(n + 1) - 1`` of position ``n``.  With integer
    ``D_n`` the bounds read ``ceil(theta*n) <= D_n < ceil(theta*n) + J(n)``,
    exact integers throughout.
    """
    counts = distinct_counts(word)
    lower = distinctness_profile(theta, max(counts.size, 1)).r[1 : counts.size + 1]
    bad = (counts < lower) | (counts >= lower + _levels(counts.size))
    return (np.flatnonzero(bad) + 1).tolist()
