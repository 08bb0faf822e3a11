"""Tilted laws, cylinder sums, the distinct-count lemma, and the bound chain."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifsdigits import tilt, weights
from ifsdigits.errors import DivergenceError, DomainError, EnumerationSizeError

LUROTH = weights.luroth_model()
KINDS = {
    "luroth": LUROTH,
    "power": weights.power_model(3.0),
    "power-log": weights.power_log_model(2.0, 1.5),
    "explicit-prefix": weights.explicit_prefix_model((0.4, 0.1, 0.2), rho=2.0),
}

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

    def test_one_sampler_per_tilted_law(self):
        tilt._tilted_sampler.cache_clear()
        for n in (4, 8, 16):
            tilt.cylinder_sum_mc(LUROTH, n, 0.75, 0.5, trials=100, seed=0)
        info = tilt._tilted_sampler.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_guards(self):
        with pytest.raises(DivergenceError):
            tilt.cylinder_sum_mc(LUROTH, 4, 0.5, 0.5, trials=10, seed=0)
        with pytest.raises(DomainError):
            tilt.cylinder_sum_mc(LUROTH, 0, 0.75, 0.5, trials=10, seed=0)
        with pytest.raises(DomainError):
            tilt.cylinder_sum_mc(LUROTH, 4, 0.75, 0.5, trials=0, seed=0)
        with pytest.raises(DomainError):
            tilt.cylinder_sum_mc(LUROTH, 4, 0.75, 0.0, trials=10, seed=0)


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
