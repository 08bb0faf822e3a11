"""Block schedules: counting, sampling, the sandwich, and block-measure geometry."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifsdigits import linear, weights
from ifsdigits.errors import (
    DepthError,
    DomainError,
    EnumerationSizeError,
    InfeasibleError,
    NotInSupportError,
)
from ifsdigits.rng import substream

LUROTH = weights.luroth_model()
EXPLICIT = weights.explicit_prefix_model((0.05, 0.4), rho=2.5)


class TestRateAndProfile:
    def test_decimal_rates_exact(self):
        assert linear.as_rate(0.3) == Fraction(3, 10)
        assert linear.as_rate(0.5) == Fraction(1, 2)
        assert linear.as_rate(1) == Fraction(1)

    def test_rate_domain(self):
        for bad in (0, -0.5, 1.5):
            with pytest.raises(DomainError):
                linear.as_rate(bad)

    def test_profile_is_ceiling(self):
        for theta in (Fraction(3, 10), Fraction(1, 2), Fraction(1)):
            prof = linear.distinctness_profile(theta, 16)
            for t in range(17):
                assert prof.r[t] == -((-theta.numerator * t) // theta.denominator)

    def test_new_times(self):
        prof = linear.distinctness_profile(Fraction(1, 2), 8)
        assert np.flatnonzero(prof.is_new).tolist() == [1, 3, 5, 7]
        assert prof.new_count == 4

    def test_theta_one_all_new(self):
        prof = linear.distinctness_profile(1, 6)
        assert np.flatnonzero(prof.is_new).tolist() == [1, 2, 3, 4, 5, 6]


class TestCountBlocks:
    def test_small_oracles(self):
        # ordered distinct pairs from 3 symbols and the 2-symbol half-rate block
        assert linear.count_blocks(3, 2, 1).exact == 6
        assert linear.count_blocks(2, 4, 0.5).exact == 4

    def test_formula_equals_enumeration_grid(self):
        for N, L, theta in itertools.product(
            range(1, 6), range(1, 7), (0.3, 0.5, 1)
        ):
            prof = linear.distinctness_profile(theta, L)
            if prof.new_count > N:
                assert list(linear.enumerate_blocks(N, L, theta)) == []
                with pytest.raises(InfeasibleError):
                    linear.count_blocks(N, L, theta)
                continue
            blocks = list(linear.enumerate_blocks(N, L, theta))
            assert linear.count_blocks(N, L, theta).exact == len(blocks)
            assert len(set(blocks)) == len(blocks)

    def test_log_count_matches_exact(self):
        bc = linear.count_blocks(5, 6, 0.5)
        assert bc.log_count == pytest.approx(math.log(bc.exact), rel=1e-12)

    def test_enumerated_blocks_satisfy_profile(self):
        prof = linear.distinctness_profile(0.5, 6)
        for block in linear.enumerate_blocks(4, 6, 0.5):
            seen = set()
            for t, d in enumerate(block, start=1):
                seen.add(d)
                assert len(seen) == prof.r[t]

    def test_huge_exact_count_degrades_to_log(self):
        bc = linear.count_blocks(2**70, 2, 1)
        assert bc.exact is None  # value needs more than 128 bits
        assert bc.log_count == pytest.approx(2 * 70 * math.log(2), rel=1e-3)

    def test_enumeration_size_guard(self):
        with pytest.raises(EnumerationSizeError):
            list(linear.enumerate_blocks(40, 6, 1, limit=1000))

    @pytest.mark.parametrize("N, L", [(60, 60), (2**130, 2), (2000, 3000)])
    def test_size_guard_past_the_exact_count(self, N, L):
        # these counts pass 2**128 or have blocks longer than 2048, where
        # count_blocks reports no exact value; the guard still refuses them at once
        start = time.perf_counter()
        with pytest.raises(EnumerationSizeError):
            next(linear.enumerate_blocks(N, L, 0.5))
        assert time.perf_counter() - start < 0.5


class TestScheduleShape:
    def test_levels_are_dyadic_disjoint(self):
        sched = linear.build_block_schedule(LUROTH, 0.5, depth=8)
        windows = [sched.window(j) for j in range(1, sched.depth + 1)]
        for j, w in enumerate(windows, start=1):
            assert len(w) == sched.base << (j - 1)
        for a, b in zip(windows, windows[1:]):
            assert a.stop == b.start  # adjacent dyadic windows, no overlap
        for j in (0, sched.depth + 1):
            with pytest.raises(DomainError):
                sched.window(j)

    def test_boundaries(self):
        sched = linear.build_block_schedule(LUROTH, 0.5, depth=5)
        assert [sched.boundary(j) for j in range(6)] == [0, 2, 6, 14, 30, 62]

    @pytest.mark.parametrize("theta", [0.1, 0.3, 0.30000000000000004, 0.5, 0.55, 0.999, 1,
                                       Fraction(1, 3)])
    @pytest.mark.parametrize("k1", [None, 1, 7])
    def test_every_level_is_feasible(self, theta, k1):
        # base >= ceil(2 theta), so no level needs more symbols than its window holds
        sched = linear.build_block_schedule(LUROTH, theta, depth=12, k1=k1)
        for j in range(1, 13):
            assert sched.profile.r[2**j] <= len(sched.window(j))

    def test_k1_defaults_to_ratio_scan(self):
        sched = linear.build_block_schedule(LUROTH, 0.5, depth=3)
        assert sched.k1 == weights.potter_scan(LUROTH, 1.0).k_eps


def reference_sandwich_violations(theta, word):
    """The per-position loop that ``sandwich_violations`` replaced."""
    theta = linear.as_rate(theta)
    num, den = theta.numerator, theta.denominator
    counts = linear.distinct_counts(np.asarray(word, dtype=np.int64))
    bad = []
    level_end = 0
    j = 0
    for n in range(1, counts.size + 1):
        if n > level_end:
            j += 1
            level_end = (1 << (j + 1)) - 2
        d = int(counts[n - 1])
        if not (num * n <= d * den and d * den < num * n + j * den):
            bad.append(n)
    return bad


class TestSamplingAndSandwich:
    def test_sandwich_matches_reference_loop(self):
        # sampled words, their permutations and corruptions: 100 words in all
        rng = np.random.default_rng(7)
        words = 0
        for theta in (0.3, Fraction(2, 3), 0.5, 1):
            sched = linear.build_block_schedule(LUROTH, theta, depth=7)
            for seed in range(5):
                word = sched.sample_word(7, substream(seed, 0x11EA, 7))
                corrupt = word.copy()
                at = rng.integers(0, word.size, size=5)
                corrupt[at] = rng.integers(1, 6, size=5)
                for w in (word, rng.permutation(word), corrupt, word[: rng.integers(0, 40)],
                          np.ones(word.size, dtype=np.int64)):
                    assert linear.sandwich_violations(theta, w) == \
                        reference_sandwich_violations(theta, w)
                    words += 1
        assert words == 100


    def test_sandwich_exact(self):
        for theta in (0.3, 0.5, 1):
            sched = linear.build_block_schedule(LUROTH, theta, depth=8)
            for seed in range(3):
                word = sched.sample_word(8, substream(seed, 0x11EA, 8))
                assert linear.sandwich_violations(theta, word) == []

    def test_sandwich_catches_bad_words(self):
        # a constant word has D_n = 1, violating theta = 1 from n = 2 on
        bad = np.ones(6, dtype=np.int64)
        assert linear.sandwich_violations(1, bad) != []

    def test_sample_reproducible(self):
        sched = linear.build_block_schedule(LUROTH, 0.5, depth=6)
        a = sched.sample_word(6, substream(4, 1))
        b = sched.sample_word(6, substream(4, 1))
        assert np.array_equal(a, b)

    def test_blocks_stay_in_alphabet(self):
        sched = linear.build_block_schedule(LUROTH, 0.3, depth=7)
        word = sched.sample_word(7, substream(2, 3))
        for j in range(1, sched.depth + 1):
            chunk = word[sched.boundary(j - 1) : sched.boundary(j)]
            assert chunk.min() >= sched.window(j).start
            assert chunk.max() < sched.window(j).stop

    def test_block_uniformity(self):
        # level-2 blocks of the half-rate schedule are uniform over their support
        sched = linear.build_block_schedule(LUROTH, 0.5, depth=2)
        window = sched.window(2)
        support = list(linear.enumerate_blocks(len(window), 4, sched.theta, alphabet=window))
        rng = substream(8, 0xB10C)
        draws = 20_000
        counts = {b: 0 for b in support}
        for _ in range(draws):
            counts[tuple(sched.sample_block(2, rng))] += 1
        expect = draws / len(support)
        chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
        # dof = len(support) - 1 = 3; 0.999 quantile is about 16.3
        assert chi2 < 16.3


class TestBlockMeasure:
    def test_full_word_mass(self):
        sched = linear.build_block_schedule(LUROTH, 0.5, depth=5)
        word = sched.sample_word(5, substream(1, 2))
        expect = -sum(
            linear.count_blocks(len(sched.window(j)), 2**j, sched.theta).log_count
            for j in range(1, sched.depth + 1)
        )
        assert sched.log_mass(word) == pytest.approx(expect, rel=1e-12)

    def test_level_masses_sum_to_parent(self):
        sched = linear.build_block_schedule(LUROTH, 0.5, depth=3)
        word = sched.sample_word(2, substream(3, 1))
        base = math.exp(sched.log_mass(word))
        window = sched.window(3)
        total = 0.0
        for block in linear.enumerate_blocks(len(window), 8, sched.theta, alphabet=window):
            total += math.exp(sched.log_mass(np.concatenate([word, block])))
        assert total == pytest.approx(base, rel=1e-10)

    def test_mid_block_one_step_additivity(self):
        sched = linear.build_block_schedule(LUROTH, 0.5, depth=4)
        word = sched.sample_word(4, substream(7, 5))
        prefix = word[:9]  # three digits into the level-3 block
        base = math.exp(sched.log_mass(prefix))
        seen = sorted(set(int(d) for d in prefix[6:9]))
        if sched.profile.is_new[4]:
            cands = [a for a in sched.window(3) if a not in seen]
        else:
            cands = seen
        total = sum(
            math.exp(sched.log_mass(np.concatenate([prefix, [a]]))) for a in cands
        )
        assert total == pytest.approx(base, rel=1e-10)

    def test_out_of_support_words(self):
        sched = linear.build_block_schedule(LUROTH, 0.5, depth=3)
        with pytest.raises(NotInSupportError):
            sched.log_mass([10**6, 1])  # outside the level-1 alphabet
        word = sched.sample_word(3, substream(0, 0))
        doubled = np.concatenate([word, word])
        with pytest.raises(DepthError):
            sched.log_mass(doubled)

    def test_repeat_time_must_reuse(self):
        sched = linear.build_block_schedule(LUROTH, 0.5, depth=2)
        a = sched.window(1).start
        # level 1 block is (a, a); a fresh digit at the repeat time is invalid
        b, c = sched.window(2)[:2]
        with pytest.raises(NotInSupportError):
            sched.log_mass([a, a, b, c])  # time 2 of block 2 must repeat b


class TestTraceAndDimension:
    def test_trace_matches_mass_and_diam(self):
        sched = linear.build_block_schedule(LUROTH, 0.5, depth=6)
        word = sched.sample_word(6, substream(3, 0x11EA, 6))
        tr = linear.point_trace(sched, word)
        assert tr["log_mass"][-1] == pytest.approx(sched.log_mass(word), rel=1e-12)
        cyl_log = float(
            np.sum(np.log([weights.weight(LUROTH, int(d)) for d in word]))
        )
        assert tr["log_diam"][-1] == pytest.approx(cyl_log, rel=1e-12)
        assert tr["local_dim"][-1] == pytest.approx(sched.local_dimension(word), rel=1e-12)

    def test_trace_bounds_hold(self):
        sched = linear.build_block_schedule(LUROTH, 0.3, depth=6)
        word = sched.sample_word(6, substream(5, 0x11EA, 6))
        tr = linear.point_trace(sched, word)
        assert np.all(tr["distinct"] >= tr["target"] - 1e-9)
        assert np.all(tr["distinct"] < tr["upper"])

    def test_local_dimension_needs_alignment(self):
        sched = linear.build_block_schedule(LUROTH, 0.5, depth=4)
        word = sched.sample_word(4, substream(1, 1))
        with pytest.raises(DomainError):
            sched.local_dimension(word[:7])

    def test_dimension_approaches_half(self):
        sched = linear.build_block_schedule(LUROTH, 0.5, depth=12)
        word = sched.sample_word(12, substream(0, 0x11EA, 12))
        d12 = sched.local_dimension(word)
        d6 = sched.local_dimension(word[: sched.boundary(6)])
        assert abs(d12 - 0.5) < abs(d6 - 0.5)


def reference_trace(schedule, word):
    """The per-position trace loop the walk replaced, kept as an oracle."""
    digits = np.asarray(word, dtype=np.int64)
    n = digits.size
    theta_f = float(schedule.theta)
    bound = np.empty(n)
    log_mass = np.empty(n)
    running = 0.0
    pos = 0
    prof = schedule.profile
    for j in range(1, schedule.depth + 1):
        if pos == n:
            break
        chunk = digits[pos : pos + 2**j]
        for t in range(1, chunk.size + 1):
            if prof.is_new[t]:
                pool = len(schedule.window(j)) - int(prof.r[t - 1])
            else:
                pool = int(prof.r[t - 1])
            running -= math.log(pool)
            log_mass[pos + t - 1] = running
            bound[pos + t - 1] = theta_f * (pos + t) + j
        pos += chunk.size
    log_diam = np.cumsum(np.log([weights.weight(schedule.model, int(d)) for d in digits]))
    return {
        "n": np.arange(1, n + 1),
        "distinct": np.array([len(set(digits[: i + 1].tolist())) for i in range(n)]),
        "target": theta_f * np.arange(1, n + 1),
        "upper": bound,
        "log_mass": log_mass,
        "local_dim": log_mass / log_diam,
    }


def reference_violation(schedule, word):
    """Message of the first inadmissible position, by the per-position rules."""
    digits = [int(d) for d in word]
    pos = 0
    is_new = schedule.profile.is_new
    for j in range(1, schedule.depth + 1):
        if pos == len(digits):
            return None
        chunk = digits[pos : pos + 2**j]
        lo, hi = schedule.window(j).start, schedule.window(j).stop
        if min(chunk) < lo or max(chunk) >= hi:
            return f"level {j} digits must lie in [{lo}, {hi})"
        seen = set()
        for t, d in enumerate(chunk, start=1):
            if is_new[t] and d in seen:
                return f"level {j} position {t} must introduce a new digit"
            if not is_new[t] and d not in seen:
                return f"level {j} position {t} must reuse a seen digit"
            seen.add(d)
        pos += len(chunk)
    return None if pos == len(digits) else "past the depth"


def cut_points(sched, depth):
    """Word lengths: every block boundary and one or two positions into each block."""
    ends = {sched.boundary(j) for j in range(1, depth + 1)}
    ends |= {sched.boundary(j) + 1 for j in range(depth)}
    ends |= {sched.boundary(j) + 3 for j in range(1, depth)}
    return sorted(ends)


class TestWalkAgainstReference:
    @pytest.mark.parametrize("model", [LUROTH, EXPLICIT], ids=["luroth", "explicit-prefix"])
    @pytest.mark.parametrize("theta", [0.3, 0.5, 1, 0.123])
    @pytest.mark.parametrize("k1", [None, 5])
    def test_trace_columns_match_bit_for_bit(self, model, theta, k1):
        depth = 7
        sched = linear.build_block_schedule(model, theta, depth=depth, k1=k1)
        for seed in (0, 1, 7):
            word = sched.sample_word(depth, substream(seed, 0x11EA, depth))
            for n in cut_points(sched, depth):
                got = linear.point_trace(sched, word[:n])
                want = reference_trace(sched, word[:n])
                for key, col in want.items():
                    if key == "local_dim":
                        # log_diam sums the same logs through a different table
                        np.testing.assert_allclose(got[key], col, rtol=1e-12)
                        continue
                    assert np.array_equal(got[key], col), (theta, k1, seed, n, key)
                    assert np.array_equal(np.signbit(got[key]), np.signbit(col)), key

    def test_first_positions_keep_positive_zero(self):
        # a one-symbol level-1 window leaves one choice per position: log mass 0
        sched = linear.build_block_schedule(LUROTH, 0.5, depth=3, k1=1)
        assert len(sched.window(1)) == 1
        word = sched.sample_word(3, substream(0, 0x11EA, 3))
        tr = linear.point_trace(sched, word)
        ref = reference_trace(sched, word)
        assert tr["log_mass"][0] == 0.0 and tr["log_mass"][1] == 0.0
        assert not np.signbit(tr["log_mass"][:2]).any()
        # +0.0 over a negative log diameter is -0.0, as in the reference
        assert np.array_equal(np.signbit(tr["local_dim"]), np.signbit(ref["local_dim"]))
        assert np.signbit(tr["local_dim"][:2]).all()

    def test_log_mass_is_last_trace_entry(self):
        for theta in (0.3, 0.5, 1):
            for depth in range(4, 11):
                sched = linear.build_block_schedule(LUROTH, theta, depth=depth)
                for seed in range(5):
                    word = sched.sample_word(depth, substream(seed, 0x11EA, depth))
                    for w in (word, word[: sched.boundary(depth - 1) + 3]):
                        assert sched.log_mass(w) == linear.point_trace(sched, w)["log_mass"][-1]

    @given(st.data())
    def test_first_violation_message(self, data):
        theta = data.draw(st.sampled_from([0.3, 0.5, 1]))
        sched = linear.build_block_schedule(LUROTH, theta, depth=5)
        word = sched.sample_word(5, substream(data.draw(st.integers(0, 50)), 0x11EA, 5))
        n = data.draw(st.integers(1, word.size))
        word = word[:n].copy()
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, n - 1))
            word[i] = data.draw(
                st.sampled_from([int(word[data.draw(st.integers(0, n - 1))]), int(word[i]) + 1, 1])
            )
        expect = reference_violation(sched, word)
        if expect is None:
            sched.log_mass(word)
            return
        with pytest.raises(NotInSupportError) as exc:
            sched.log_mass(word)
        assert str(exc.value) == expect
        with pytest.raises(NotInSupportError) as exc:
            linear.point_trace(sched, word)
        assert str(exc.value) == expect

    def test_overlong_word_errors(self):
        sched = linear.build_block_schedule(LUROTH, 0.5, depth=3)
        word = sched.sample_word(3, substream(0, 0))
        longer = np.concatenate([word, word[:2]])
        with pytest.raises(DepthError):
            sched.log_mass(longer)
        with pytest.raises(DepthError):
            linear.point_trace(sched, longer)
        with pytest.raises(DomainError, match="block-aligned"):
            sched.local_dimension(np.concatenate([word, word[:16]]))  # 30 digits, past depth 3


class TestDepthGuard:
    @pytest.mark.parametrize("depth", [22, 40, 70])
    def test_too_deep_raises_fast(self, depth):
        start = time.perf_counter()
        with pytest.raises(DepthError, match="depth 21"):
            linear.build_block_schedule(LUROTH, 0.5, depth=depth)
        assert time.perf_counter() - start < 1.0

    def test_depth_21_passes_the_guard(self):
        # level 1 starts at 2**61; the index-overflow check stops level 2, after the guard
        with pytest.raises(DepthError, match="overflow at level 2"):
            linear.build_block_schedule(LUROTH, 1.0, depth=21, k1=2**61)
        assert linear._MAX_WORD_LENGTH == (1 << 22)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([Fraction(3, 10), Fraction(1, 2), Fraction(1)]),
)
def test_count_formula_property(N, L, theta):
    prof = linear.distinctness_profile(theta, L)
    if prof.new_count > N:
        assert list(linear.enumerate_blocks(N, L, theta)) == []
    else:
        assert linear.count_blocks(N, L, theta).exact == len(
            list(linear.enumerate_blocks(N, L, theta))
        )
