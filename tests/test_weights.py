"""Weight models: tail sums, tilted sums, exponent roots, ratio scans, sampling."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gamma as gamma_function
from scipy.special import gammaincc, zeta

from ifsdigits import weights
from ifsdigits.errors import (
    DivergenceError,
    DomainError,
    HorizonExceededError,
    PrecisionError,
    TiltThresholdError,
)
from ifsdigits.rng import substream

LUROTH = weights.luroth_model()

# Frozen oracle values, computed once with 40-digit interval arithmetic
# (direct summation of 4e5 terms plus integral remainder brackets).
TILTED_TAIL_10_075 = 0.6324949888781377
TILTED_TAIL_100_075 = 0.2000001249977
ZETA_075 = 2.0109381287137382
S_2 = 0.6009668516136755
POWER3_TAIL_10 = 0.004596219589005183


class TestModelConstruction:
    def test_luroth_weights(self):
        assert weights.weight(LUROTH, 1) == 0.5
        assert weights.weight(LUROTH, 4) == pytest.approx(1 / 20, rel=1e-15)
        assert LUROTH.rho == 2.0

    def test_power_model_normalizes(self):
        m = weights.power_model(3.0)
        p = weights.weights_range(m, 1, 20001)
        assert weights.weight(m, 1) == pytest.approx(0.831907372580707469, rel=1e-12)
        assert p[0] / p[7] == pytest.approx(8.0**3, rel=1e-12)

    def test_power_rho_validation(self):
        with pytest.raises(DomainError):
            weights.power_model(0.5)
        with pytest.raises(DomainError):
            weights.power_model(1.0)

    def test_power_log_model(self):
        m = weights.power_log_model(2.0, 1.5)
        p = weights.weights_range(m, 1, 100)
        ratio = p[49] / p[24]
        expect = (25 / 50) ** 2 * (math.log(51) / math.log(26)) ** 1.5
        assert ratio == pytest.approx(expect, rel=1e-12)

    def test_explicit_prefix_model(self):
        m = weights.explicit_prefix_model((0.4, 0.3), rho=2.0)
        assert weights.weight(m, 1) == 0.4
        assert weights.weight(m, 2) == 0.3
        assert weights.tail_sum(m, 3) == pytest.approx(0.3, rel=1e-9)

    def test_finite_kind_rejected(self):
        # every model has the positive integers as its support
        with pytest.raises(DomainError, match="unknown weight-model kind 'finite'"):
            weights.WeightModel(kind="finite", rho=2.0)

    def test_spec_roundtrip(self):
        for spec in (
            {"kind": "luroth"},
            {"kind": "power", "rho": 3.0},
            {"kind": "power-log", "rho": 2.0, "gamma": 1.5},
        ):
            m = weights.model_from_spec(spec)
            again = weights.model_from_spec(weights.model_to_spec(m))
            assert weights.weight(m, 7) == weights.weight(again, 7)

    def test_power_spec_gamma(self):
        # a given gamma is read, not dropped: 0 is power, anything else is rejected
        m = weights.model_from_spec({"kind": "power", "rho": 3.0, "gamma": 0})
        assert m == weights.power_model(3.0)
        assert weights.model_to_spec(m) == {"kind": "power", "rho": 3.0}
        with pytest.raises(DomainError, match="use power-log"):
            weights.model_from_spec({"kind": "power", "rho": 3.0, "gamma": 1.5})
        with pytest.raises(DomainError, match="'gamma' must be a number"):
            weights.model_from_spec({"kind": "power", "rho": 3.0, "gamma": "1.5"})

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "luroth", "rho": 3}, "tail index 2"),
        ({"kind": "luroth", "gamma": 1.0}, "gamma = 0"),
        ({"kind": "luroth", "prefix": [0.2]}, "no prefix"),
        ({"kind": "power", "rho": 3, "prefix": [0.2]}, "no prefix"),
        ({"kind": "power-log", "rho": 2, "gamma": 1.5, "prefix": [0.2]}, "no prefix"),
        ({"kind": "power-log", "rho": 2}, "'gamma' must be a number"),
        ({"kind": "power"}, "'rho' must be a number"),
        ({"kind": "power", "rho": math.inf}, "finite"),
        ({"kind": "power-log", "rho": 2, "gamma": math.inf}, "finite"),
        ({"kind": "power-log", "rho": math.nan, "gamma": 1.0}, "finite"),
        ({"kind": "explicit-prefix", "rho": 2.5, "prefix": [0.3], "gamma": 1.5}, "gamma = 0"),
        ({"kind": "explicit-prefix", "rho": 2.5}, "needs a 'prefix' array"),
        ({"kind": "explicit-prefix", "rho": 2.5, "prefix": []}, "at least one entry"),
        ({"kind": "explicit-prefix", "rho": 2.5, "prefix": [math.nan, 0.2]}, "positive and finite"),
        ({"kind": "explicit-prefix", "rho": 2.5, "prefix": [math.inf]}, "positive and finite"),
        ({"kind": "explicit-prefix", "rho": 2.5, "prefix": [0.0, 0.2]}, "positive"),
        ({"kind": "explicit-prefix", "rho": 2.5, "prefix": [0.6, 0.4]}, "less than 1"),
        ({"kind": "explicit-prefix", "rho": 2.5, "prefix": ["a"]}, "must be a number"),
        ({"kind": "explicit-prefix", "rho": 2.5, "prefix": [None]}, "must be a number"),
        ({"kind": "explicit-prefix", "rho": 2.5, "prefix": [True]}, "must be a number"),
        ({"kind": "explicit-prefix", "rho": 1.0, "prefix": [0.3]}, "rho > 1"),
        ({"kind": "finite", "rho": 2.0}, "unknown weight-model kind 'finite'"),
    ])
    def test_spec_field_rules(self, spec, message):
        # every kind reads every field; a value the kind does not take is refused
        with pytest.raises(DomainError, match=message):
            weights.model_from_spec(spec)

    def test_spec_fields_at_their_kind_values(self):
        for spec in ({"kind": "luroth"}, {"kind": "luroth", "rho": 2, "gamma": 0, "prefix": []}):
            assert weights.model_from_spec(spec) == LUROTH
        m = weights.model_from_spec(
            {"kind": "explicit-prefix", "rho": 2.5, "gamma": 0, "prefix": [0.4, 0.2]})
        assert m == weights.explicit_prefix_model((0.4, 0.2), rho=2.5)

    def test_explicit_prefix_is_head_plus_family_tail(self):
        # digits past the head follow the power-log tail k**-rho / D, with D
        # making that tail carry the mass 1 - 0.6 the head leaves
        m = weights.explicit_prefix_model((0.4, 0.2), rho=2.5)
        d = weights._powerlog_raw_tail(3, 2.5, 0.0) / (1.0 - (0.4 + 0.2))
        assert m._norm == d
        assert m.power_constant == 1.0 / d
        assert weights.weight(m, 7) == 7 ** -2.5 / d
        assert weights.log_weights_of(m, [7])[0] == -2.5 * math.log(7) - math.log(d)
        assert weights.slowly_varying(m, 1) == weights.slowly_varying(m, 9) == 1.0 / d
        k = np.arange(3.0, 9.0)
        assert np.array_equal(weights.weights_range(m, 1, 9), np.r_[0.4, 0.2, k ** -2.5 / d])
        want = weights._powerlog_raw_tail(3, 2.25, 0.0) / d ** 0.9 + 0.2 ** 0.9
        assert weights.tilted_tail_sum(m, 2, 0.9) == want

    def test_normalization_four_kinds(self):
        for m in (
            LUROTH,
            weights.power_model(3.0),
            weights.power_log_model(2.0, 1.0),
            weights.explicit_prefix_model((0.4, 0.3), rho=2.0),
        ):
            hi = 10**6 + 1
            total = float(np.sum(weights.weights_range(m, 1, hi))) + weights.tail_sum(m, hi)
            assert total == pytest.approx(1.0, abs=1e-9)


class TestTailSums:
    def test_luroth_tail_telescopes(self):
        # sum_{k >= M} 1/(k(k+1)) = 1/M exactly
        for M in (1, 2, 5, 10, 1000):
            assert weights.tail_sum(LUROTH, M) == pytest.approx(1.0 / M, rel=1e-12)

    def test_tilted_tail_oracles(self):
        got10 = weights.tilted_tail_sum(LUROTH, 10, 0.75)
        got100 = weights.tilted_tail_sum(LUROTH, 100, 0.75)
        assert got10 == pytest.approx(TILTED_TAIL_10_075, rel=1e-9)
        assert got100 == pytest.approx(TILTED_TAIL_100_075, rel=1e-9)

    def test_tilted_tail_scaling_band(self):
        # the M**(1-rho*s) scaling law: ratio to M**-0.5 settles near 2
        for M in (10, 100, 1000, 10000):
            ratio = weights.tilted_tail_sum(LUROTH, M, 0.75) * math.sqrt(M)
            assert 1.8 <= ratio <= 2.2

    def test_zeta_oracle(self):
        assert weights.tilted_tail_sum(LUROTH, 1, 0.75) == pytest.approx(
            ZETA_075, rel=1e-9
        )

    def test_divergent_tilt_rejected(self):
        with pytest.raises(DivergenceError):
            weights.tilted_tail_sum(LUROTH, 1, 0.5)  # rho*s = 1
        with pytest.raises(DivergenceError):
            weights.tilted_tail_sum(LUROTH, 10, 0.3)

    def test_power_log_log_exponent_range(self):
        # Gamma(g + 1, x) is only available for g > -1: fail typed, not NaN
        for gamma in (-1.0, -1.5):
            with pytest.raises(DomainError, match="above -1"):
                weights.power_log_model(2.0, gamma)
        m = weights.power_log_model(2.0, -0.9)
        assert math.isfinite(weights.tail_sum(m, 10))
        with pytest.raises(DomainError, match="got -1.8"):
            weights.tilted_tail_sum(m, 10, 2.0)

    def test_power3_tail(self):
        m = weights.power_model(3.0)
        assert weights.tail_sum(m, 10) == pytest.approx(POWER3_TAIL_10, rel=1e-9)

    def test_tilt_monotone_in_s(self):
        grid = np.linspace(0.55, 1.0, 10)
        vals = [weights.tilted_tail_sum(LUROTH, 1, s) for s in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def reference_tail_integral(a: float, q: float, g: float) -> float:
    """The earlier scipy-based tail integral: regularized ``gammaincc`` times ``Gamma``."""
    ln_a = math.log(a + 1.0)
    total = 0.0
    coef = 1.0
    for j in range(80):
        p = q + j
        upper = float(gammaincc(g + 1.0, (p - 1.0) * ln_a)) * math.gamma(g + 1.0)
        term = coef * (p - 1.0) ** -(g + 1.0) * upper
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        coef *= (q + j) / (j + 1.0)
    return total


class TestNumpyOnlyTails:
    """The private Gamma(a, x) and the one tail solver against scipy oracles."""

    @pytest.mark.parametrize("a", [*np.geomspace(0.01, 12.0, 17), 1.0])
    def test_upper_gamma_against_scipy(self, a):
        for x in np.geomspace(1e-4, 700.0, 60):
            want = gammaincc(a, x) * gamma_function(a)
            got = weights._upper_gamma(float(a), float(x))
            assert got == pytest.approx(want, rel=1e-12), (a, x)

    @pytest.mark.parametrize("M", [1, 2, 10, 8191, 8192, 8193, 10**5, 2**20 + 1, 10**12])
    def test_zeta_tail_against_scipy(self, M):
        for q in np.geomspace(1.001, 20.0, 25):
            got = weights._powerlog_raw_tail(M, float(q), 0.0)
            assert got == pytest.approx(zeta(q, M), rel=1e-12), (q, M)

    def test_tail_integral_against_gammaincc_reference(self):
        for g in np.linspace(-0.9, 5.0, 12):
            for q in (1.001, 1.1, 1.5, 2.0, 3.0, 6.0):
                for a in (8192.0, 1e5, 2.0**40):
                    want = reference_tail_integral(a, q, float(g))
                    got = weights._powerlog_tail_integral(a, q, float(g))
                    assert got == pytest.approx(want, rel=1e-12), (g, q, a)

    def test_explicit_prefix_tail_against_scipy(self):
        m = weights.explicit_prefix_model((0.1, 0.3), rho=2.5)
        c = 0.6 / zeta(2.5, 3)
        assert m.power_constant == pytest.approx(c, rel=1e-12)
        for M in (1, 2, 3, 50, 10**6):
            want = c * zeta(2.5, max(M, 3)) + sum((0.1, 0.3)[M - 1 :])
            assert weights.tail_sum(m, M) == pytest.approx(want, rel=1e-12)

    def test_power_is_power_log_at_gamma_zero(self):
        p, pl = weights.power_model(3.0), weights.power_log_model(3.0, 0.0)
        assert p.power_constant == pl.power_constant
        assert np.array_equal(weights.weights_range(p, 1, 5000), weights.weights_range(pl, 1, 5000))
        assert np.array_equal(weights.weights_range(p, 9000, 9100), weights.weights_range(pl, 9000, 9100))
        for k in (1, 2, 7, 1000, 10**9):
            assert weights.weight(p, k) == weights.weight(pl, k)
            assert weights.log_weights_of(p, [k]) == weights.log_weights_of(pl, [k])
            assert weights.slowly_varying(p, k) == weights.slowly_varying(pl, k)
        for M, s in ((1, 1.0), (10, 0.75), (8192, 0.5), (10**6, 2.0)):
            assert weights.tilted_tail_sum(p, M, s) == weights.tilted_tail_sum(pl, M, s)
            assert weights.tail_sum(p, M) == weights.tail_sum(pl, M)

    def test_power_rejects_gamma(self):
        with pytest.raises(DomainError, match="power-log"):
            weights.WeightModel(kind="power", rho=3.0, gamma=1.5)
        assert weights.WeightModel(kind="power", rho=3.0).gamma == 0.0


def _bisect_s2() -> float:
    # independent root oracle for p_1**s + p_2**s = 1
    def f(s):
        return 0.5**s + (1 / 6) ** s - 1

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestExponentSolver:
    def test_s1_is_zero_exactly(self):
        assert weights.partial_sum_exponent(LUROTH, 1) == 0.0

    def test_residual_grid(self):
        for K in (2, 3, 7, 10, 50, 100, 500, 1000, 5000, 10000):
            s = weights.partial_sum_exponent(LUROTH, K)
            p = weights.weights_range(LUROTH, 1, K + 1)
            assert abs(float(np.sum(p**s)) - 1.0) < 1e-12

    def test_monotone_in_k(self):
        vals = [weights.partial_sum_exponent(LUROTH, K) for K in range(1, 40)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_s2_against_bisection_oracle(self):
        assert weights.partial_sum_exponent(LUROTH, 2) == pytest.approx(
            _bisect_s2(), abs=1e-12
        )
        assert abs(weights.partial_sum_exponent(LUROTH, 2) - 0.601) < 1e-3

    def test_s1000_above_09(self):
        assert weights.partial_sum_exponent(LUROTH, 1000) > 0.9

    @given(st.integers(min_value=1, max_value=200))
    def test_residual_property(self, K):
        s = weights.partial_sum_exponent(LUROTH, K)
        p = weights.weights_range(LUROTH, 1, K + 1)
        assert abs(float(np.sum(p**s)) - 1.0) < 1e-12
        assert 0.0 <= s < 1.0


class TestPotterScan:
    def test_luroth_scan(self):
        rep = weights.potter_scan(LUROTH, 1.0)
        assert rep.k_eps == 1
        assert rep.C_eps <= 2.0
        assert weights.verify_potter_report(LUROTH, rep)

    def test_power_log_scan(self):
        m = weights.power_log_model(2.0, 2.0)
        rep = weights.potter_scan(m, 0.5)
        assert rep.k_eps >= 1
        assert weights.verify_potter_report(m, rep)

    def test_scan_limit_guard(self):
        # depressed prefix entries push the half-bound start past the window
        prefix = (0.4,) + (1e-12,) * 39
        m = weights.explicit_prefix_model(prefix, rho=2.0)
        with pytest.raises(HorizonExceededError):
            weights.potter_scan(m, 1.0, scan_limit=64)
        rep = weights.potter_scan(m, 1.0, scan_limit=10_000)
        assert rep.k_eps == 41  # first index past the depressed prefix
        assert weights.verify_potter_report(m, rep)

    def test_underflowing_weight_raises(self):
        # power(400): p_6 = 6**-400 is subnormal, p_7 underflows to 0, and
        # log(0) - log(0) would make the dyadic span NaN
        m = weights.power_model(400.0)
        assert weights.potter_scan(m, 0.1, scan_limit=6).C_eps == 1.0
        with pytest.raises(PrecisionError, match="p_7 underflows to 0"):
            weights.potter_scan(m, 0.1, scan_limit=7)
        with pytest.raises(PrecisionError, match="p_7 underflows to 0"):
            weights.potter_scan(m, 0.1)


def reference_dyadic_window_min(logp):
    """The per-element sparse-table lookup that ``_dyadic_window_min`` replaced."""
    n = logp.size
    table = [logp]
    width = 1
    while width * 2 <= n:
        prev = table[-1]
        table.append(np.minimum(prev[: prev.size - width], prev[width:]))
        width *= 2
    out = np.empty(n)
    for i in range(n):
        hi = min(2 * (i + 1) - 1, n)  # digits i+1 .. hi, zero-based i .. hi-1
        length = hi - i
        lev = length.bit_length() - 1
        w = 1 << lev
        out[i] = min(table[lev][i], table[lev][hi - w])
    return out


class TestDyadicWindowMin:
    def test_matches_reference_loop(self):
        for n in [*range(1, 70), 1000, 4097, 10_000, 65_536]:
            rng = substream(n, 0xD1)
            for logp in (rng.normal(size=n), np.log(weights.weights_range(LUROTH, 1, n + 1))):
                got = weights._dyadic_window_min(logp)
                assert np.array_equal(got, reference_dyadic_window_min(logp)), n

    def test_brute_force_windows(self):
        logp = substream(3, 0xD2).normal(size=300)
        want = [logp[i : min(2 * (i + 1) - 1, 300)].min() for i in range(300)]
        assert weights._dyadic_window_min(logp).tolist() == want


# every kind at s in {0.75, 0.8, 1} (Lüroth at s = 1 draws in closed form),
# and power(400), whose first cumulative entry rounds to the total
GUIDE_CASES = [
    pytest.param(model, s, id=f"{model.describe()}-s{s}")
    for model in (
        LUROTH,
        weights.power_model(1.5),
        weights.power_log_model(2.0, 1.5),
        weights.explicit_prefix_model([0.3, 0.2], 2.5),
        weights.power_model(400.0),
    )
    for s in (0.75, 0.8, 1.0)
    if model.kind != "luroth" or s != 1.0
]


class TestSampling:
    def test_luroth_frequencies(self):
        rng = substream(17, 0xA11)
        sampler = weights.DigitSampler(LUROTH)
        draws = sampler.sample(rng, 200_000)
        for k in range(1, 9):
            p = weights.weight(LUROTH, k)
            got = np.mean(draws == k)
            sd = math.sqrt(p * (1 - p) / draws.size)
            assert abs(got - p) < 4.5 * sd

    def test_tilted_frequencies(self):
        rng = substream(23, 0xA12)
        sampler = weights.DigitSampler(LUROTH, s=0.75)
        draws = sampler.sample(rng, 200_000)
        z = weights.tilted_tail_sum(LUROTH, 1, 0.75)
        for k in range(1, 6):
            q = weights.weight(LUROTH, k) ** 0.75 / z
            got = np.mean(draws == k)
            sd = math.sqrt(q * (1 - q) / draws.size)
            assert abs(got - q) < 4.5 * sd

    def test_sampler_reproducible(self):
        a = weights.DigitSampler(LUROTH).sample(substream(3, 1), 1000)
        b = weights.DigitSampler(LUROTH).sample(substream(3, 1), 1000)
        assert np.array_equal(a, b)

    def test_single_draw_helper(self):
        # inverse CDF at a fixed u: cumulative through k is k/(k+1)
        class FixedU:
            def __init__(self, u):
                self.u = u

            def random(self, size):
                return np.full(size, self.u)

        assert weights.DigitSampler(LUROTH).sample(FixedU(0.75), 1).tolist() == [4]
        assert weights.DigitSampler(LUROTH).sample(FixedU(0.4999), 1).tolist() == [1]
        m = weights.power_model(3.0)
        assert weights.DigitSampler(m).sample(FixedU(0.5), 1).tolist() == [1]

    def test_deep_tail_draws_valid(self):
        # a heavy tail pushes some draws past the cumulative table
        rng = substream(29, 0xA13)
        m = weights.power_model(1.5)
        draws = weights.DigitSampler(m, table_size=1 << 10).sample(rng, 50_000)
        assert draws.min() >= 1
        assert draws.max() > 1 << 10

    @pytest.mark.parametrize("table_size", [1 << 10, 1 << 20])
    @pytest.mark.parametrize("model, s", GUIDE_CASES)
    def test_guide_matches_searchsorted(self, model, s, table_size):
        sampler = weights.DigitSampler(model, s, table_size=table_size)
        cum, total = sampler._cum, sampler.total
        edges = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, np.inf)])
        targets = np.concatenate([
            substream(31, 0xA14).random(200_000) * total,
            edges[edges <= total],
            [0.0, total, np.nextafter(total, 0.0)],
        ])
        want = np.searchsorted(cum, targets, side="right")
        blocks = range(0, targets.size, weights._SAMPLE_BLOCK)
        got = [sampler._locate(targets[i : i + weights._SAMPLE_BLOCK]) for i in blocks]
        assert np.array_equal(np.concatenate(got), want)
        assert sampler._guide.size < 1 << 17

    def test_blocks_match_reference_draws(self):
        # several blocks, the last one partial, with draws past a small table
        model, s, size = weights.power_model(1.5), 1.0, 3 * weights._SAMPLE_BLOCK + 5
        sampler = weights.DigitSampler(model, s, table_size=1 << 10)
        target = substream(37, 0xA15).random(size) * sampler.total
        want = np.searchsorted(sampler._cum, target, side="right") + 1
        for i in np.flatnonzero(want > 1 << 10):
            want[i] = weights._invert_tail(model, s, sampler.total - target[i], 1 << 10)
        got = sampler.sample(substream(37, 0xA15), size)
        assert got.dtype == np.int64
        assert (want > 1 << 10).any()
        assert np.array_equal(got, want)


class TestSubstream:
    def test_replay_and_separation(self):
        a = substream(7, 1).integers(0, 2**63, size=8)
        b = substream(7, 1).integers(0, 2**63, size=8)
        c = substream(7, 2).integers(0, 2**63, size=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_path_dimensions_distinct(self):
        a = substream(7, 1, 2).integers(0, 2**63, size=8)
        b = substream(7, 1).integers(0, 2**63, size=8)
        assert not np.array_equal(a, b)


class TestInvertTailGuard:
    def test_unreachable_quantile_raises(self):
        with pytest.raises(TiltThresholdError):
            # no index k <= 2**62 has tail mass below 1e-300
            weights._invert_tail(LUROTH, 1.0, 1e-300, 1)


def reference_invert_tail(model, s, target, lo):
    """The plain search ``_invert_tail`` replays: gallop by doubling, then bisect."""
    k_lo = lo
    k_hi = max(2 * k_lo, k_lo + 1)
    while weights.tilted_tail_sum(model, k_hi + 1, s) >= target:
        k_lo = k_hi
        k_hi *= 2
        if k_hi > 1 << 62:
            raise TiltThresholdError("tail inversion ran past 2**62")
    while k_hi - k_lo > 1:
        mid = (k_lo + k_hi) // 2
        if weights.tilted_tail_sum(model, mid + 1, s) < target:
            k_hi = mid
        else:
            k_lo = mid
    if weights.tilted_tail_sum(model, k_lo + 1, s) < target:
        return k_lo
    return k_hi


def invert_or_none(invert, model, s, target, lo):
    try:
        return invert(model, s, target, lo)
    except TiltThresholdError:
        return None


# one model per kind, each at tilts with rho*s = 1.05, about 1.5 and 3
TILTED_KINDS = {
    "luroth": (LUROTH, (0.525, 0.75, 1.5)),
    "power": (weights.power_model(1.5), (0.7, 1.0, 2.0)),
    "power-log": (weights.power_log_model(2.0, 1.5), (0.525, 0.8, 1.5)),
    "explicit-prefix": (weights.explicit_prefix_model([0.3, 0.2], 2.5), (0.42, 0.6, 1.2)),
}
TILTED_CASES = [
    pytest.param(model, s, id=f"{kind}-{model.rho * s:.2f}")
    for kind, (model, tilts) in TILTED_KINDS.items()
    for s in tilts
]


def fallback_targets(model, s, lo, count, seed):
    """Tail targets of draws past a table of ``lo`` entries, plus its edge values."""
    edge = weights.tilted_tail_sum(model, lo + 1, s)
    u = substream(seed, 0xF1).random(count)
    return [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf), *(edge * u)]


class TestInvertTailAgainstReference:
    @pytest.mark.parametrize("lo", [1 << 10, 1000, 1 << 20])
    @pytest.mark.parametrize("model, s", TILTED_CASES)
    def test_same_digits_and_errors(self, model, s, lo):
        # lo = 2**10 runs the searches across _EM_CUT; 1000 is no power of two
        raised = 0
        for target in fallback_targets(model, s, lo, 40, lo):
            want = invert_or_none(reference_invert_tail, model, s, target, lo)
            assert invert_or_none(weights._invert_tail, model, s, target, lo) == want, target
            raised += want is None
        if model.rho * s < 1.1:
            assert raised > 0  # the 2**62 limit is reached and matched

    @pytest.mark.parametrize("kind", list(TILTED_KINDS))
    def test_fewer_tail_calls(self, monkeypatch, kind):
        model, (_, s, _) = TILTED_KINDS[kind]
        lo = 1 << 20
        calls = [0]
        tail = weights.tilted_tail_sum

        def counted(*args):
            calls[0] += 1
            return tail(*args)

        monkeypatch.setattr(weights, "tilted_tail_sum", counted)
        used = {}
        for name, invert in (("reference", reference_invert_tail), ("guess", weights._invert_tail)):
            weights._tail_anchor.cache_clear()
            calls[0] = 0
            for target in fallback_targets(model, s, lo, 100, 7):
                invert(model, s, target, lo)
            used[name] = calls[0]
        weights._tail_anchor.cache_clear()
        # the power-log guess has to learn the log factor; it still needs
        # under a quarter of the bisection's evaluations
        assert used["guess"] < used["reference"] / (4 if kind == "power-log" else 8), used

    def test_limit_follows_the_doubling(self):
        # from lo = 3 the search doubles to 3 * 2**60 and stops below 2**62,
        # so a digit near 4e18 is past its limit although it is below 2**62
        s = 0.525
        target = weights.tilted_tail_sum(LUROTH, 4 * 10**18, s)
        with pytest.raises(TiltThresholdError):
            reference_invert_tail(LUROTH, s, target, 3)
        with pytest.raises(TiltThresholdError):
            weights._invert_tail(LUROTH, s, target, 3)
        digit = weights._invert_tail(LUROTH, s, target, 1 << 20)
        assert digit == reference_invert_tail(LUROTH, s, target, 1 << 20) > 3 << 60

    def test_noisy_tail_keeps_the_search_digit(self, monkeypatch):
        # a tail that is not monotone within a few ulps, as float tails far
        # out can be: the digit is still the one the plain search finds
        def noisy_tail(model, M, s):
            return M ** -0.5 * (1.0 + 4e-16 * ((M * 2654435761) % 7 - 3))

        monkeypatch.setattr(weights, "tilted_tail_sum", noisy_tail)
        weights._tail_anchor.cache_clear()
        lo = 1 << 20
        edge = noisy_tail(LUROTH, lo + 1, 0.75)
        # log-uniform targets put the digits anywhere up to past 2**62
        for target in edge * np.exp(-25.0 * substream(5, 0xF2).random(300)):
            target = float(target)
            want = invert_or_none(reference_invert_tail, LUROTH, 0.75, target, lo)
            assert invert_or_none(weights._invert_tail, LUROTH, 0.75, target, lo) == want
        weights._tail_anchor.cache_clear()

    @pytest.mark.parametrize("model, s", TILTED_CASES)
    def test_float_tail_monotone(self, model, s):
        for start in (weights._EM_CUT - 40, (1 << 10) - 40, (1 << 20) - 40):
            tails = [weights.tilted_tail_sum(model, m, s) for m in range(start, start + 80)]
            assert all(np.diff(tails) < 0.0), start

    @pytest.mark.parametrize("kind", list(TILTED_KINDS))
    def test_sampler_draws_match_reference(self, monkeypatch, kind):
        model, (_, s, _) = TILTED_KINDS[kind]
        sampler = weights.DigitSampler(model, s, table_size=1 << 10)
        got = sampler.sample(substream(9, 0xF3), 5_000)
        monkeypatch.setattr(weights, "_invert_tail", reference_invert_tail)
        want = sampler.sample(substream(9, 0xF3), 5_000)
        assert got.dtype == np.int64
        assert np.count_nonzero(got > 1 << 10) > 20
        assert np.array_equal(got, want)

    def test_threads_share_the_anchor_cache(self):
        # simulate's workers share the cached table-edge tails; draws from a
        # cold cache under frequent thread switches equal the serial ones
        model, (_, s, _) = TILTED_KINDS["power"]
        sampler = weights.DigitSampler(model, s, table_size=1 << 10)

        def draw(i):
            return sampler.sample(substream(11, i), 2_000)

        want = [draw(i) for i in range(8)]
        weights._tail_anchor.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(draw, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
