"""Tilted laws, cylinder sums, the distinct-count lemma, and the bound chain."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifsdigits import tilt, weights
from ifsdigits.errors import DivergenceError, DomainError, EnumerationSizeError
from ifsdigits.rng import substream

LUROTH = weights.luroth_model()
KINDS = {
    "luroth": LUROTH,
    "power": weights.power_model(3.0),
    "power-log": weights.power_log_model(2.0, 1.5),
    "explicit-prefix": weights.explicit_prefix_model((0.4, 0.1, 0.2), rho=2.0),
}

# tracemalloc peak allowed to one Monte Carlo call on 2**20-digit words, which
# are drawn one word a block: a draw holds its uniforms and digits, 16 bytes
# each, and must not also hold the previous block (that takes 24 MB)
BATCH_PEAK_BOUND = 1.25 * 16 * (1 << 20)

# sum of p_k**0.75 over the quadratic-tail model, frozen from a
# high-precision series evaluation with integral-remainder brackets
ZETA_075 = 2.0109381287137382


def s4_theta1(model, s):
    """``S_4(s, 1) = Z(s)**4 - Z(4s)``: at threshold 2 only the constant words drop out."""
    return weights.tilted_tail_sum(model, 1, s) ** 4 - weights.tilted_tail_sum(model, 1, 4 * s)


def brute_force_sum(model, n, s, theta, cap):
    """Cylinder sum by direct product iteration (independent of the DP)."""
    w = [weights.weight(model, k) ** s for k in range(1, cap + 1)]
    need = tilt.distinct_threshold(n, theta)
    total = 0.0
    for word in itertools.product(range(cap), repeat=n):
        if len(set(word)) >= need:
            prod = 1.0
            for i in word:
                prod *= w[i]
            total += prod
    return total


def prob_se(mc):
    """Standard error of a Monte Carlo record's probability, without ``Z(s)**n``."""
    return mc.stderr / math.exp(mc.n * mc.log_zeta)


def chain_holds(rec, mc):
    """The Monte Carlo probability lies below the binomial bound, within 3 se."""
    return mc.prob <= math.exp(min(rec.log_binomial_bound, 0.0)) + 3.0 * prob_se(mc)


def reference_cylinder_sum_exact(model, n, s, theta, cap):
    """The subset DP ``cylinder_sum_exact`` replaced: (position, set of used digits)."""
    w = weights.weights_range(model, 1, cap + 1) ** s
    # dp[mask] = sum over words with used-digit set == mask of the word mass
    dp = {0: 1.0}
    for _ in range(n):
        nxt = {}
        for mask, val in dp.items():
            for k in range(cap):
                new_mask = mask | (1 << k)
                nxt[new_mask] = nxt.get(new_mask, 0.0) + val * w[k]
        dp = nxt
    need = tilt.distinct_threshold(n, theta)
    return math.fsum(val for mask, val in dp.items() if mask.bit_count() >= need)


class TestTiltedDistribution:
    def test_normalization_and_shape(self):
        z = weights.tilted_tail_sum(LUROTH, 1, 0.75)
        assert z == pytest.approx(ZETA_075, rel=1e-12)
        tails = [weights.tilted_tail_sum(LUROTH, M, 0.75) for M in range(1, 31)]
        masses = [(a - b) / z for a, b in zip(tails, tails[1:])]
        assert all(a > b for a, b in zip(masses, masses[1:]))
        assert masses[2] == pytest.approx(
            weights.weight(LUROTH, 3) ** 0.75 / ZETA_075, rel=1e-9
        )

    def test_tail_mass_decreases(self):
        tails = [weights.tilted_tail_sum(LUROTH, M, 0.75) for M in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(tails, tails[1:]))

    def test_divergent_exponent(self):
        with pytest.raises(DivergenceError):
            weights.tilted_tail_sum(LUROTH, 1, 0.5)


class TestDistinctLemma:
    def test_exhaustive_scan(self):
        report = tilt.distinct_forces_large_check(6, 6)
        assert report.counterexample is None
        assert report.tuples_checked == sum(6**n for n in range(1, 7))

    def test_scan_guards(self):
        with pytest.raises(DomainError):
            tilt.distinct_forces_large_check(0, 6)
        with pytest.raises(EnumerationSizeError):
            tilt.distinct_forces_large_check(10, 10)
        # one value per position, but 10**8 lengths: 10**8 tuples up to length 10**8
        with pytest.raises(EnumerationSizeError):
            tilt.distinct_forces_large_check(10**8, 1)
        assert tilt.distinct_forces_large_check(30, 1).tuples_checked == 30

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=40))
    def test_lemma_property(self, word):
        m = len(set(word))
        cut = (m + 1) // 2
        assert sum(1 for d in word if d >= cut) >= cut  # positions with a digit >= ceil(m/2)


class TestThreshold:
    def test_values(self):
        assert tilt.distinct_threshold(4, 1.0) == 2
        assert tilt.distinct_threshold(5, 0.8) == 2
        assert tilt.distinct_threshold(40, 0.5) == 10
        assert tilt.distinct_threshold(10, 0.3) == 2

    def test_no_float_overshoot(self):
        # 3 * (2/3) / 2 = 1 must not round up to 2
        assert tilt.distinct_threshold(3, 2.0 / 3.0) == 1
        assert tilt.distinct_threshold(10, 0.6) == 3

    @pytest.mark.parametrize("n, theta, want", [
        (100_000, 0.55, 27_500),
        (100_000, 0.541, 27_050),
        (100_000, 0.562, 28_100),
    ])
    def test_theta_read_exactly(self, n, theta, want):
        # the float product 0.55 * 100000 / 2 is 27500.000000000004
        assert tilt.distinct_threshold(n, theta) == want
        assert tilt.bound_chain(LUROTH, n, 1.0, theta).threshold == want

    @pytest.mark.parametrize("theta", [math.nan, math.inf, 0.0, 1.5])
    def test_rate_read_before_any_table(self, monkeypatch, theta):
        def build(*args, **kwargs):
            raise AssertionError("a weight table or sampler was built before theta was read")

        for name in ("weights_range", "tilted_tail_sum", "DigitSampler"):
            monkeypatch.setattr(tilt, name, build)
        for run in (lambda: tilt.cylinder_sum_exact(LUROTH, 4, 0.75, theta, 4),
                    lambda: tilt.cylinder_sum_mc(LUROTH, 4, 0.75, theta, trials=10, seed=0),
                    lambda: tilt.bound_chain(LUROTH, 4, 0.75, theta)):
            with pytest.raises(DomainError, match="theta"):
                run()


class TestCylinderSumExact:
    def test_uniform_pair_by_hand(self):
        rec = tilt.cylinder_sum_exact(LUROTH, 4, 0.75, 1.0, alphabet_cap=2)
        # 14 of the 16 words over {1, 2} use both digits: j ones, 4 - j twos
        a, b = 0.5**0.75, (1 / 6) ** 0.75
        by_hand = 4 * a**3 * b + 6 * a**2 * b**2 + 4 * a * b**3
        assert rec.value == pytest.approx(by_hand, rel=1e-14)
        assert rec.prob == pytest.approx(by_hand / (a + b) ** 4, rel=1e-14)
        tail = weights.tilted_tail_sum(LUROTH, 3, 0.75)
        assert rec.truncation_deficit == pytest.approx(4 * tail * ZETA_075**3, rel=1e-12)
        assert rec.mode == "exact-enumeration"

    def test_probability_normalization(self):
        # threshold 1: every word over digits 1..3 counts, and p_1 + p_2 + p_3 = 3/4
        rec = tilt.cylinder_sum_exact(LUROTH, 3, 1.0, 0.01, alphabet_cap=3)
        assert rec.value == pytest.approx(0.75**3, rel=1e-12)
        assert rec.prob == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("cap", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_theta_one_identity_on_cap(self, kind, cap):
        model = KINDS[kind]
        rec = tilt.cylinder_sum_exact(model, 4, 0.75, 1.0, alphabet_cap=cap)
        w = weights.weights_range(model, 1, cap + 1) ** 0.75
        assert rec.value == pytest.approx(math.fsum(w) ** 4 - math.fsum(w**4), rel=1e-12)

    def test_matches_brute_force(self):
        rec = tilt.cylinder_sum_exact(LUROTH, 5, 0.75, 0.8, alphabet_cap=4)
        brute = brute_force_sum(LUROTH, 5, 0.75, 0.8, 4)
        assert rec.value == pytest.approx(brute, rel=1e-12)

    def test_change_of_measure_identity(self):
        for s, theta in itertools.product((0.6, 0.9), (0.4, 1.0)):
            rec = tilt.cylinder_sum_exact(LUROTH, 4, s, theta, alphabet_cap=5)
            w = weights.weights_range(LUROTH, 1, 6) ** s
            z = float(w.sum())
            q = w / z
            need = tilt.distinct_threshold(4, theta)
            prob = sum(
                math.prod(q[i] for i in word)
                for word in itertools.product(range(5), repeat=4)
                if len(set(word)) >= need
            )
            assert rec.value == pytest.approx(z**4 * prob, rel=1e-12)
            assert rec.prob == pytest.approx(prob, rel=1e-12)

    def test_monotone_in_s_and_theta(self):
        by_s = [
            tilt.cylinder_sum_exact(LUROTH, 4, s, 0.8, alphabet_cap=4).value
            for s in (0.6, 0.75, 0.9)
        ]
        assert by_s[0] >= by_s[1] >= by_s[2]
        by_theta = [
            tilt.cylinder_sum_exact(LUROTH, 4, 0.75, theta, alphabet_cap=4).value
            for theta in (0.4, 0.8, 1.0)
        ]
        assert by_theta[0] >= by_theta[1] >= by_theta[2]

    def test_deficit_bracket_recomputed(self):
        rec = tilt.cylinder_sum_exact(LUROTH, 3, 0.75, 0.5, alphabet_cap=6)
        tail = weights.tilted_tail_sum(LUROTH, 7, 0.75)
        zeta = weights.tilted_tail_sum(LUROTH, 1, 0.75)
        assert rec.truncation_deficit == pytest.approx(3 * tail * zeta**2, rel=1e-12)
        assert rec.log_zeta == pytest.approx(math.log(zeta), rel=1e-12)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_matches_subset_dp(self, kind):
        model = KINDS[kind]
        worst = 0.0
        for n, cap, s, theta in itertools.product(
            range(1, 9), (1, 2, 4, 6), (0.6, 0.75, 0.9), (0.2, 0.4, 0.8, 1.0)
        ):
            rec = tilt.cylinder_sum_exact(model, n, s, theta, alphabet_cap=cap)
            want = reference_cylinder_sum_exact(model, n, s, theta, cap)
            if want == 0.0:
                assert rec.value == rec.prob == 0.0
                continue
            worst = max(worst, abs(rec.value - want) / want)
        assert worst <= 1e-13

    def test_long_certain_event(self):
        # threshold 1 at n = 2000: every word counts, so the DP must carry
        # the whole probability through 2000 binomial steps per digit
        rec = tilt.cylinder_sum_exact(LUROTH, 2000, 1.0, 0.001, alphabet_cap=6)
        assert abs(rec.prob - 1.0) <= 1e-12
        assert rec.value == pytest.approx((6 / 7) ** 2000, rel=1e-11)

    def test_guards(self):
        for n, cap in ((1, 10**9), (1000, 100_000), (100_000, 64)):
            start = time.perf_counter()
            with pytest.raises(EnumerationSizeError):
                tilt.cylinder_sum_exact(LUROTH, n, 1.0, 0.5, alphabet_cap=cap)
            assert time.perf_counter() - start < 1.0
        with pytest.raises(DomainError):
            tilt.cylinder_sum_exact(LUROTH, 0, 0.75, 0.5, alphabet_cap=3)
        with pytest.raises(DomainError):
            tilt.cylinder_sum_exact(LUROTH, 3, 0.75, 1.5, alphabet_cap=3)
        with pytest.raises(DomainError):
            tilt.cylinder_sum_exact(LUROTH, 3, -0.1, 0.5, alphabet_cap=3)
        with pytest.raises(DomainError):
            tilt.cylinder_sum_exact(LUROTH, 3, 0.75, 0.5, alphabet_cap=0)


class TestCylinderSumMC:
    def test_uniform_pair_within_error(self):
        rec = tilt.cylinder_sum_mc(LUROTH, 4, 0.75, 1.0, trials=200_000, seed=3)
        assert rec.stderr is not None and rec.stderr > 0
        assert abs(rec.value - s4_theta1(LUROTH, 0.75)) < 4.0 * rec.stderr

    def test_agrees_with_exact_bracket(self):
        exact = tilt.cylinder_sum_exact(LUROTH, 6, 0.75, 0.8, alphabet_cap=6)
        mc = tilt.cylinder_sum_mc(LUROTH, 6, 0.75, 0.8, trials=200_000, seed=5)
        # exact-on-cap <= true value <= exact + deficit, MC within 4 se of true
        slack = 4.0 * mc.stderr + exact.truncation_deficit
        assert exact.value - 4.0 * mc.stderr <= mc.value <= exact.value + slack

    def test_certain_event(self):
        # threshold 1 distinct: every word qualifies, so the estimate is Z**n
        rec = tilt.cylinder_sum_mc(LUROTH, 5, 0.75, 0.2, trials=500, seed=0)
        assert rec.prob == 1.0
        assert rec.stderr == 0.0
        assert rec.value == pytest.approx(ZETA_075**5, rel=1e-10)

    def test_deterministic_per_seed(self):
        a = tilt.cylinder_sum_mc(LUROTH, 8, 0.75, 0.5, trials=20_000, seed=11)
        b = tilt.cylinder_sum_mc(LUROTH, 8, 0.75, 0.5, trials=20_000, seed=11)
        c = tilt.cylinder_sum_mc(LUROTH, 8, 0.75, 0.5, trials=20_000, seed=12)
        assert a.value == b.value and a.prob == b.prob
        assert a.value != c.value

    def test_one_sampler_per_tilted_law(self, monkeypatch):
        builds = []

        def build(*args, **kwargs):
            builds.append(args)
            return weights.DigitSampler(*args, **kwargs)

        monkeypatch.setattr(tilt, "DigitSampler", build)
        tilt.cylinder_sums_mc(LUROTH, (4, 8, 16), 0.75, 0.5, trials=100, seed=0)
        assert len(builds) == 1

    def test_one_batch_of_words_held_at_a_time(self):
        tracemalloc.start()
        try:
            tilt.cylinder_sum_mc(LUROTH, 1 << 20, 1.0, 0.5, trials=8, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < BATCH_PEAK_BOUND

    def test_three_lengths_hold_one_block(self):
        # the shorter lengths copy their share of each block, and carry at
        # most one incomplete word to the next
        tracemalloc.start()
        try:
            tilt.cylinder_sums_mc(LUROTH, (1 << 20, 1 << 19, 3), 1.0, 0.5, trials=8, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < BATCH_PEAK_BOUND

    def test_guards(self):
        with pytest.raises(DivergenceError):
            tilt.cylinder_sum_mc(LUROTH, 4, 0.5, 0.5, trials=10, seed=0)
        with pytest.raises(DomainError):
            tilt.cylinder_sum_mc(LUROTH, 0, 0.75, 0.5, trials=10, seed=0)
        with pytest.raises(DomainError):
            tilt.cylinder_sum_mc(LUROTH, 4, 0.75, 0.5, trials=0, seed=0)
        with pytest.raises(DomainError):
            tilt.cylinder_sum_mc(LUROTH, 4, 0.75, 0.0, trials=10, seed=0)
        with pytest.raises(DomainError, match="at least one word length"):
            tilt.cylinder_sums_mc(LUROTH, (), 0.75, 0.5, trials=10, seed=0)

    def test_every_length_read_before_any_draw(self, monkeypatch):
        def invert(*args):
            raise AssertionError("digits were drawn before every length was read")

        monkeypatch.setattr(weights.DigitSampler, "invert", invert)
        for ns, error in (((40, 0), "positive integer"), ((40, 2.0), "not an integer"),
                          ((40, weights._MAX_DRAWS + 1), "exceeds the limit"),
                          ((40, 3000), "Z\\(s\\)\\*\\*n")):
            with pytest.raises(DomainError, match=error):
                tilt.cylinder_sums_mc(LUROTH, ns, 0.75, 0.5, trials=10, seed=0)


def reference_hits(model, n, s, theta, trials, seed):
    """Words of the ``n * trials`` first ``cylsum`` draws with enough distinct
    digits, drawn by one ``sample`` call and so labelled in one scope."""
    words = weights.DigitSampler(model, s=s).sample(substream(seed, 0x7117), n * trials)
    words = np.sort(words.reshape(trials, n), axis=1)
    distinct = 1 + np.count_nonzero(words[:, 1:] != words[:, :-1], axis=1)
    return int(np.count_nonzero(distinct >= tilt.distinct_threshold(n, theta)))


class TestCylinderSumsMC:
    """One stream for every word length: each length reads a prefix of it."""

    @pytest.mark.parametrize("block, ns, trials", [
        (None, (40, 80, 160), 2000),
        (None, (3, 7, 10), 20_000),  # 7 * 20,000 draws pass a block that 7 does not divide
        (None, (160, 40), 2000),
        (None, (40, 40), 2000),
        (64, (40, 80, 160), 200),
        (64, (3, 7, 10), 200),
        (64, (160, 40), 200),
        (64, (40, 40), 200),
        (64, (100, 3), 50),  # the long words are longer than the block
    ])
    def test_each_length_as_if_drawn_alone(self, monkeypatch, block, ns, trials):
        if block is not None:
            monkeypatch.setattr(tilt, "_SAMPLE_BLOCK", block)
        recs = tilt.cylinder_sums_mc(LUROTH, ns, 0.75, 0.5, trials=trials, seed=9)
        assert recs == [tilt.cylinder_sum_mc(LUROTH, n, 0.75, 0.5, trials, 9) for n in ns]
        for rec, n in zip(recs, ns):
            assert rec.prob * trials == reference_hits(LUROTH, n, 0.75, 0.5, trials, 9)

    def test_long_word_next_to_a_short_one(self):
        # the longest word is longer than the default block, which then holds one word
        ns = ((1 << 16) + 5, 3)
        recs = tilt.cylinder_sums_mc(LUROTH, ns, 1.0, 1.0, trials=20, seed=4)
        assert recs == [tilt.cylinder_sum_mc(LUROTH, n, 1.0, 1.0, 20, 4) for n in ns]
        assert 0.0 < recs[1].prob < 1.0

    @pytest.mark.parametrize("block", [None, 256], ids=["block-2**16", "block-256"])
    def test_deep_draws_labelled_per_block(self, monkeypatch, block):
        # power(1.5) at s = 0.8 puts about 5% of the draws past the sampler
        # table; neither shorter length divides a block, so deep draws are carried
        if block is not None:
            monkeypatch.setattr(tilt, "_SAMPLE_BLOCK", block)
        model, ns, trials = weights.power_model(1.5), (7, 290, 400), 600
        deep = []
        invert = weights.DigitSampler.invert

        def counted(sampler, u):
            out = invert(sampler, u)
            deep.append(np.count_nonzero(out < 0))
            return out

        monkeypatch.setattr(weights.DigitSampler, "invert", counted)
        recs = tilt.cylinder_sums_mc(model, ns, 0.8, 1.0, trials=trials, seed=4)
        monkeypatch.setattr(weights.DigitSampler, "invert", invert)
        assert sum(deep) > 0.01 * 400 * trials
        assert all(0.0 < rec.prob < 1.0 for rec in recs)
        for rec, n in zip(recs, ns):
            assert rec == tilt.cylinder_sum_mc(model, n, 0.8, 1.0, trials, 4)
            assert rec.prob * trials == reference_hits(model, n, 0.8, 1.0, trials, 4)

    def test_draws_the_longest_words_once(self, monkeypatch):
        sizes = []
        invert = weights.DigitSampler.invert

        def counted(sampler, u):
            sizes.append(u.size)
            return invert(sampler, u)

        monkeypatch.setattr(weights.DigitSampler, "invert", counted)
        tilt.cylinder_sums_mc(LUROTH, (40, 80, 160), 0.75, 0.5, trials=10_000, seed=0)
        # blocks of 409 words of 160 digits, then the rest
        assert sizes == [65_440] * 24 + [160 * 10_000 - 24 * 65_440]


def reference_count(sampler, n, threshold, scope):
    """Whole words of ``scope`` with at least ``threshold`` distinct labels, by
    int64 labels and ``np.sort``, and the draws past them."""
    whole = scope.size - scope.size % n
    words = np.sort(sampler.label(scope[:whole].copy()).reshape(-1, n), axis=1)
    distinct = 1 + np.count_nonzero(words[:, 1:] != words[:, :-1], axis=1)
    return int(np.count_nonzero(distinct >= threshold)), scope[whole:]


def deep_mass(R):
    """A deep draw of remaining mass ``R``, as :meth:`DigitSampler.invert` writes it."""
    return -np.float64(R).view(np.int64)


def tilted_scope(seed=3):
    """power(1.5) draws past a 1024-entry table, with deep draws of equal mass
    written in, so that they are inverted, not labelled alone: two at a digit
    past 2**30, three past 2**31 and two at digit 5000."""
    model = weights.power_model(1.5)
    sampler = weights.DigitSampler(model, 1.0, table_size=1 << 10)
    scope = sampler.invert(substream(seed, 7).random(4000))
    for k, at in (((1 << 30) + 3, (5, 11)), ((1 << 31) + 5, (17, 18, 900)), (5000, (40, 41))):
        scope[list(at)] = deep_mass(weights.tilted_tail_sum(model, k, 1.0))
    return sampler, scope


def luroth_scope(seed=3):
    """Lüroth s = 1 digits, drawn in closed form, with digits at the class limit
    and near 2**31 and 2**53 written in, some repeated within a word."""
    sampler = weights.DigitSampler(LUROTH)
    scope = sampler.invert(substream(seed, 8).random(4000))
    limit = tilt._CLASS_LIMIT
    for k, at in ((limit, (3, 4, 70)), (limit + 1, (5, 71)), ((1 << 31) - 1, (6,)),
                  ((1 << 31) + 1, (7, 8)), ((1 << 32) + 1, (13, 14)),
                  ((1 << 53) - 1, (9, 10, 300)), (1 << 53, (15, 301))):
        scope[list(at)] = k
    return sampler, scope


class TestEqualityClasses:
    """int32 classes count the words that int64 labels count."""

    @pytest.mark.parametrize("make", [tilted_scope, luroth_scope], ids=["deep", "luroth-s1"])
    @pytest.mark.parametrize("n", [1, 3, 8, 40])
    def test_classes_count_as_labels_do(self, make, n):
        sampler, scope = make()
        labels = sampler.label(scope.copy())
        assert (labels > 1 << 31).any() and ((labels > tilt._CLASS_LIMIT) & (labels < 1 << 31)).any()
        classes, flags = np.empty(scope.size, dtype=np.int32), np.empty(scope.size, dtype=bool)
        # with a carry, and without; classes=None writes the classes over the draws
        for c, in_place in sorted({(0, False), (n - 1, False), (0, True)}):
            take = scope.size - c - 2  # the block runs past the draws this length reads
            for threshold in range(1, n + 1):
                block = scope[c:].copy()
                found, rest = tilt._count_rich_words(
                    sampler, n, threshold, scope[:c].copy(), block[:take],
                    tilt._past_limit(block, flags), None if in_place else classes, flags)
                want, want_rest = reference_count(sampler, n, threshold, scope[: c + take])
                assert found == want
                assert np.array_equal(rest, want_rest)
                # the draws are left as they are, unless their buffer takes the classes
                assert np.array_equal(block, scope[c:]) != in_place

    def test_deep_pairs_share_their_digit(self):
        sampler, scope = tilted_scope()
        labels = sampler.label(scope.copy())
        assert labels[5] == labels[11] > 1 << 30
        assert labels[17] == labels[18] == labels[900] > 1 << 31
        assert labels[40] == labels[41] > 1 << 10


class TestBoundChain:
    def test_r_and_threshold(self):
        rec = tilt.bound_chain(LUROTH, 40, 0.75, 0.5)
        assert rec.r == 5
        assert rec.threshold == 10
        short = tilt.bound_chain(LUROTH, 4, 0.75, 1.0)
        assert short.r == 1

    def test_tail_mass_exact_at_s_one(self):
        # at s = 1 the quadratic tail telescopes: mass of digits >= r is 1/r
        rec = tilt.bound_chain(LUROTH, 40, 1.0, 0.5)
        assert rec.q_tail == pytest.approx(1.0 / 5.0, rel=1e-12)

    def test_tail_mass_bracketed(self):
        rec = tilt.bound_chain(LUROTH, 40, 0.75, 0.5)
        # independent partial sum: p_k < k**-2, so the cut tail is < 2e-3
        head = float(
            np.sum(weights.weights_range(LUROTH, 5, 1_000_000) ** 0.75)
        )
        zeta = weights.tilted_tail_sum(LUROTH, 1, 0.75)
        assert head / zeta <= rec.q_tail <= (head + 0.002) / zeta

    def test_bound_formula_recomputed(self):
        rec = tilt.bound_chain(LUROTH, 80, 0.75, 0.5)
        expect = rec.r * (1.0 + math.log(80) + math.log(rec.q_tail) - math.log(rec.r))
        assert rec.log_binomial_bound == pytest.approx(expect, rel=1e-12)
        assert rec.log_sum_bound == pytest.approx(
            80 * rec.log_zeta + rec.log_binomial_bound, rel=1e-12
        )

    def test_vacuous_bound_still_consistent(self):
        rec = tilt.bound_chain(LUROTH, 4, 0.75, 1.0)
        mc = tilt.cylinder_sum_mc(LUROTH, 4, 0.75, 1.0, trials=20_000, seed=2)
        assert rec.log_binomial_bound > 0.0  # vacuous: exceeds any probability
        assert chain_holds(rec, mc)
        z4 = math.exp(4 * rec.log_zeta)
        assert abs(mc.prob - s4_theta1(LUROTH, 0.75) / z4) < 4.0 * prob_se(mc)

    def test_chain_holds_with_mc(self):
        rec = tilt.bound_chain(LUROTH, 40, 0.75, 0.5)
        mc = tilt.cylinder_sum_mc(LUROTH, 40, 0.75, 0.5, trials=50_000, seed=1)
        assert chain_holds(rec, mc)

    def test_log_probability_trend(self):
        # the tilted distinct-count probability falls, and falls faster with n
        pairs = [
            (tilt.bound_chain(LUROTH, n, 0.75, 0.5),
             tilt.cylinder_sum_mc(LUROTH, n, 0.75, 0.5, trials=100_000, seed=1))
            for n in (40, 80, 160)
        ]
        lp = [math.log(mc.prob) for _, mc in pairs]
        assert lp[0] > lp[1] > lp[2]
        assert lp[2] - lp[1] < lp[1] - lp[0]  # concave: decay accelerates
        for rec, mc in pairs:
            assert chain_holds(rec, mc)

    def test_analytic_bound_turns_superlinear(self):
        b4 = tilt.bound_chain(LUROTH, 4000, 0.75, 0.5).log_binomial_bound
        b8 = tilt.bound_chain(LUROTH, 8000, 0.75, 0.5).log_binomial_bound
        assert b4 < 0.0
        assert b8 < 2.0 * b4  # doubling n more than doubles the log-bound


class TestCsvExport:
    def test_rows_and_join(self, tmp_path):
        from ifsdigits import cli

        exact = tilt.cylinder_sum_exact(LUROTH, 4, 0.75, 0.5, alphabet_cap=4)
        mc = tilt.cylinder_sum_mc(LUROTH, 8, 0.75, 0.5, trials=5_000, seed=7)
        bound = tilt.bound_chain(LUROTH, 8, 0.75, 0.5)
        path = tmp_path / "cylsum.csv"
        rows = []
        for flags in (["--n", "4", "--mode", "exact", "--cap", "4"],
                      ["--n", "8", "--trials", "5000", "--seed", "7"]):
            argv = ["cylsum", "--s", "0.75", "--theta", "0.5", *flags, "--out", str(path)]
            assert cli.main(argv) == 0
            lines = path.read_text(encoding="utf-8").strip().split("\n")
            assert lines[1] == "n,s,theta,mode,value,stderr,truncation_deficit,binomial_bound"
            assert len(lines) == 3
            rows.append(lines[2].split(","))
        first, second = rows
        assert first[0] == "4" and first[3] == "exact-enumeration"
        assert first[5] == ""  # no stderr in exact mode
        assert float(first[6]) == pytest.approx(exact.truncation_deficit)
        assert second[3] == "monte-carlo"
        assert float(second[4]) == pytest.approx(mc.value)
        assert second[6] == ""  # no truncation in MC mode
        assert float(second[7]) == pytest.approx(
            math.exp(min(bound.log_binomial_bound, 0.0))
        )
