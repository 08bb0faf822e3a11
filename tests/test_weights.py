"""Weight models: tail sums, tilted sums, exponent roots, ratio scans, sampling."""

import math
import re
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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

    def test_describe_round_trips_rho_and_gamma(self):
        # :g where it reads back as the same float, so every header written so far keeps its bytes
        assert weights.power_model(1.5).describe() == "power(rho=1.5)"
        assert weights.power_log_model(2.0, -0.3).describe() == "power-log(rho=2, gamma=-0.3)"
        assert weights.explicit_prefix_model((0.4, 0.2), 2.5).describe() == (
            "explicit-prefix(2 entries, rho=2.5)")
        # and repr where :g rounds: 1.0000001 once read "power(rho=1)"
        assert weights.power_model(1.0000001).describe() == "power(rho=1.0000001)"
        m = weights.power_log_model(1 + 2**-40, 0.1 + 1e-12)
        assert m.describe() == f"power-log(rho={1 + 2**-40!r}, gamma={0.1 + 1e-12!r})"
        rho, gamma = re.findall(r"=([^,)]+)", m.describe())
        assert (float(rho), float(gamma)) == (m.rho, m.gamma)

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
        # the model needs gamma > -1; a tilted tail may go below, where the
        # continued fraction for Gamma(g + 1, x) holds
        for gamma in (-1.0, -1.5):
            with pytest.raises(DomainError, match="above -1"):
                weights.power_log_model(2.0, gamma)
        m = weights.power_log_model(2.0, -0.9)
        assert math.isfinite(weights.tail_sum(m, 10))
        assert math.isfinite(weights.tilted_tail_sum(m, 10, 2.0))
        # log exponent -1.0098 and (q - 1) ln 8193 = 0.27 < g + 2: no Gamma(a, x) path
        with pytest.raises(DomainError, match="got -1.0098"):
            weights.tilted_tail_sum(weights.power_log_model(1.01, -0.99), 5, 1.02)

    def test_power3_tail(self):
        m = weights.power_model(3.0)
        assert weights.tail_sum(m, 10) == pytest.approx(POWER3_TAIL_10, rel=1e-9)

    def test_tilt_monotone_in_s(self):
        grid = np.linspace(0.55, 1.0, 10)
        vals = [weights.tilted_tail_sum(LUROTH, 1, s) for s in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("model, M, s", [
        (weights.power_model(1.01), 1, 200.0),  # zeta(1.01)**200 overflows
        (weights.power_model(1.5), 1, 800.0),
        (weights.explicit_prefix_model([0.1], 3.0), 2, 700.0),  # the divisor's power underflows
        (LUROTH, 1, 2e304),  # s * (2a + 1) overflows to inf, times 0
        (weights.power_model(1e308), 2, 2.0),  # rho * s overflows to inf
    ], ids=["overflow", "overflow-s800", "zero-divisor", "luroth-nan", "power-nan"])
    def test_out_of_float_range_is_precision_error(self, model, M, s):
        # these once raised OverflowError or ZeroDivisionError, or returned nan
        with pytest.raises(PrecisionError, match=re.escape(f"at M = {M}, s = {s!r} ")):
            weights.tilted_tail_sum(model, M, s)


def reference_tail_integral(a: float, q: float, g: float) -> float:
    """The earlier scipy-based tail integral: regularized ``gammaincc`` times ``Gamma``."""
    gammaincc = pytest.importorskip("scipy.special").gammaincc
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
    """The private Gamma(a, x) and the one tail solver against scipy oracles.

    scipy is a test-only dependency: each oracle test skips without it.
    """

    @pytest.mark.parametrize("a", [*np.geomspace(0.01, 12.0, 17), 1.0])
    def test_upper_gamma_against_scipy(self, a):
        special = pytest.importorskip("scipy.special")
        for x in np.geomspace(1e-4, 700.0, 60):
            want = special.gammaincc(a, x) * special.gamma(a)
            got = weights._upper_gamma(float(a), float(x))
            assert got == pytest.approx(want, rel=1e-12), (a, x)

    @pytest.mark.parametrize("a", [-0.8, -0.5, 0.0])
    def test_upper_gamma_nonpositive_a_against_quad(self, a):
        # the continued fraction serves a <= 0 wherever x >= a + 1
        quad = pytest.importorskip("scipy.integrate").quad
        for x in np.geomspace(a + 1.0 if a + 1.0 > 0.05 else 0.05, 600.0, 30):
            want = quad(lambda t: t ** (a - 1.0) * math.exp(-t), x, math.inf,
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]
            assert weights._upper_gamma(a, float(x)) == pytest.approx(want, rel=1e-12), (a, x)

    @pytest.mark.parametrize("M", [1, 2, 10, 8191, 8192, 8193, 10**5, 2**20 + 1, 10**12])
    def test_zeta_tail_against_scipy(self, M):
        zeta = pytest.importorskip("scipy.special").zeta
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

    def test_tail_integral_below_log_exponent_minus_one_against_quad(self):
        # power-log(2, -0.9) tilted at s = 2 has log exponent -1.8
        quad = pytest.importorskip("scipy.integrate").quad
        want = quad(lambda x: x**-4.0 * math.log(x + 1.0) ** -1.8, 8192.0, math.inf,
                    epsabs=0.0, epsrel=1e-13)[0]
        assert weights._powerlog_tail_integral(8192.0, 4.0, -1.8) == pytest.approx(want, rel=1e-12)

    def test_explicit_prefix_tail_against_scipy(self):
        zeta = pytest.importorskip("scipy.special").zeta
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


KERNEL_MODELS = [
    pytest.param(model, id=model.describe())
    for model in (
        LUROTH,
        weights.power_model(1.5),
        weights.power_log_model(2.0, 1.5),
        weights.power_log_model(1.4, -0.3),
        weights.explicit_prefix_model((0.05, 0.4, 0.01), 2.5),
    )
]


def scalar_weight(model, k):
    """``p_k`` by the scalar formula ``weight`` used before the one kernel: an oracle
    within a few ulp, from Python's ``pow`` and ``math.log`` instead of numpy's."""
    if model.kind == "luroth":
        return 1.0 / (k * (k + 1.0))
    if k <= len(model.prefix):
        return model.prefix[k - 1]
    return k ** -model.rho * math.log(k + 1.0) ** model.gamma / model._norm


class TestWeightKernel:
    @pytest.mark.parametrize("model", KERNEL_MODELS)
    @pytest.mark.parametrize("lo, hi", [
        (1, (1 << 11) + 1), (2, 5), (3, 4), (777, 2049), (4097, 4100),
        ((1 << 62) - 1500, (1 << 62) + 1500),
    ])
    def test_weight_is_its_range_element(self, model, lo, hi):
        # bit for bit, across the prefix edge, at odd chunk offsets and near 2**62
        table = weights.weights_range(model, lo, hi)
        one = np.array([weights.weight(model, k) for k in range(lo, hi)])
        assert np.array_equal(one.view(np.int64), table.view(np.int64))

    @pytest.mark.parametrize("model", KERNEL_MODELS)
    def test_range_rounds_each_digit_past_2_53(self, model):
        # float64 steps of 1 vanish near 2**62, where np.arange repeats its start:
        # each k is rounded on its own instead, to one of 5 floats here
        p = weights.weights_range(model, (1 << 62) - 1500, (1 << 62) + 1500)
        assert np.unique(p).size >= 3

    @pytest.mark.parametrize("model", KERNEL_MODELS)
    def test_within_8_ulp_of_the_scalar_formula(self, model):
        # the measured worst is 5 ulp; Lüroth runs the same three operations
        k_max = 10**5
        p = weights.weights_range(model, 1, k_max + 1)
        want = np.array([scalar_weight(model, k) for k in range(1, k_max + 1)])
        ulps = np.abs(p - want) / np.spacing(want)
        assert ulps.max() <= (0 if model.kind == "luroth" else 8)

    @pytest.mark.parametrize("model", KERNEL_MODELS)
    def test_against_mpmath(self, model):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for k in (4, 5, 10, 1000, 12345, 10**9, 1 << 62):
                x = mp.mpf(float(k))
                if model.kind == "luroth":
                    want = 1 / (x * (x + 1))
                else:
                    want = x ** -model.rho * mp.log(x + 1) ** model.gamma / model._norm
                want = float(want)
                assert abs(weights.weight(model, k) - want) <= 8 * math.ulp(want), k

    @pytest.mark.parametrize("model", KERNEL_MODELS)
    def test_weight_bound_is_the_kernel(self, model):
        # these tails fall from digit _falling_from on, so the bound is a weight there
        start = int(weights._falling_from(model))
        for m in (1, 2, 3, 4, 5, (1 << 20) + 1, ((1 << 20) + 1) << 41):
            want = max((weights.weight(model, max(m, start)), *model.prefix[m - 1 :]))
            assert weights._weight_bound(model, m) == want

    def test_weight_bound_of_a_rising_head(self):
        # power-log(4, 68) rises up to digit 24,154,935: the bound is the formula at
        # its real peak, up to rounding (a weight near the peak lay 61 ulp above it)
        m = weights.power_log_model(4.0, 68.0)
        bound = weights._weight_bound(m, 1)
        peak = weights.weights_range(m, 24_000_000, 24_300_000).max()
        assert peak <= bound * (1 + 1e-12)
        assert bound == pytest.approx(weights.weight(m, 24_154_935), rel=1e-12)
        # the sampler's margin covers that rounding
        assert bound * (1 + weights._BOUND_SLACK) >= peak

    def test_log_factor_overflow_raises_without_warning(self):
        # power-log(200, 300): log(k+1)**300 overflows from about k = 40,000 on
        m = weights.power_log_model(200.0, 300.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert weights.weights_range(m, 1, 30_000).min() >= 0.0
            for call in (lambda: weights.weights_range(m, 1, 50_000),
                         lambda: weights.weight(m, 50_000)):
                with pytest.raises(PrecisionError, match=r"weights of power-log\(rho=200, gamma=300\) "
                                                         "leave the float range"):
                    call()
            with pytest.raises(PrecisionError, match="over k >= 8191 overflows a float"):
                weights._powerlog_raw_tail(8191, 50.5, 1700.0)


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

    def test_truncation_past_limit_refused_before_any_table(self, monkeypatch):
        # --solve-s 10000000 once built a 335 MB table; 10**9 would need about 33 GB
        def table(*args):
            raise AssertionError("built a weight table")

        monkeypatch.setattr(weights, "weights_range", table)
        with pytest.raises(DomainError, match=f"K = {(1 << 20) + 1} exceeds the limit"):
            weights.partial_sum_exponent(LUROTH, weights._MAX_THRESHOLD + 1)

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

    def test_scan_limit_guard_before_any_table(self, monkeypatch):
        # scan limits of 2**20 took 254 MB and 4,194,304 took 984 MB
        def table(*args):
            raise AssertionError("built a weight table")

        monkeypatch.setattr(weights, "weights_range", table)
        with pytest.raises(DomainError, match=f"scan limit {(1 << 20) + 1} exceeds the limit"):
            weights.potter_scan(LUROTH, 0.1, weights._MAX_THRESHOLD + 1)

    @pytest.mark.parametrize("model, epsilon, scan_limit, want", [
        *[(m, eps, limit, (1, 1.0)) for m in (
            LUROTH, weights.power_model(3.0), weights.power_log_model(2.0, 1.0),
            weights.power_model(1.5), weights.power_log_model(2.0, 1.5),
            weights.power_log_model(1.4, -0.3), weights.power_log_model(2.0, 2.0),
            weights.power_log_model(4.0, 68.0), weights.power_log_model(2.0, 34.0),
        ) for eps in (1.0, 0.1) for limit in (10_000, 64)],
        *[(weights.explicit_prefix_model(prefix, 2.5), eps, limit, (3, 1.0))
          for prefix in ((0.4, 0.2), (0.1, 0.3), (0.001, 0.3))
          for eps in (1.0, 0.1) for limit in (10_000, 64)],
        (weights.explicit_prefix_model((0.4,) + (1e-12,) * 39, 2.0), 1.0, 10_000, (41, 1.0)),
        (weights.explicit_prefix_model((0.4,) + (1e-12,) * 39, 2.0), 0.1, 10_000, (41, 1.0)),
        (weights.power_model(400.0), 0.1, 6, (1, 1.0)),
        # p_2 / p_3 = 3.92 is past 2**1.6: the one constant above 1
        (weights.explicit_prefix_model((0.6, 0.15), 1.5), 0.1, 10_000, (1, 1.295)),
        (weights.explicit_prefix_model((0.6, 0.15), 1.5), 1.0, 64, (1, 1.0)),
        (weights.explicit_prefix_model((0.5, 0.3, 0.02), 2.0), 0.1, 10_000, (4, 1.0)),
    ])
    def test_reports_kept_by_the_one_kernel(self, model, epsilon, scan_limit, want):
        # the reports of the scan that evaluated its half-bound by a formula of its own
        rep = weights.potter_scan(model, epsilon, scan_limit)
        assert (rep.k_eps, rep.C_eps) == want


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


def all_levels_dyadic_window_min(logp):
    """The sparse table that ``_dyadic_window_min`` built with every level alive."""
    n = logp.size
    table = [logp]
    width = 1
    while width * 2 <= n:
        prev = table[-1]
        table.append(np.minimum(prev[: prev.size - width], prev[width:]))
        width *= 2
    i = np.arange(n)
    hi = np.minimum(2 * i + 1, n)
    lev = np.frexp(hi - i)[1] - 1
    out = np.empty(n)
    for j, level in enumerate(table):
        at = np.flatnonzero(lev == j)
        out[at] = np.minimum(level[at], level[hi[at] - (1 << j)])
    return out


class TestDyadicWindowMin:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 100, *(
        (1 << k) + d for k in (4, 10, 16, 20) for d in (-1, 1))])
    def test_one_level_at_a_time_matches_all_levels(self, n):
        rng = substream(n, 0xD3)
        for logp in (rng.normal(size=n), np.log(weights.weights_range(LUROTH, 1, n + 1)),
                     np.round(rng.normal(size=n), 1)):  # ties
            got = weights._dyadic_window_min(logp)
            assert got.tobytes() == all_levels_dyadic_window_min(logp).tobytes(), n

    def test_empty(self):
        assert weights._dyadic_window_min(np.empty(0)).size == 0

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


def one_piece_table(model, s, table_size):
    """The sampler's table, guide, shift and top bucket, built in one piece: the
    reference that the piecewise build must equal bit for bit."""
    total = weights.tilted_tail_sum(model, 1, s) if s != 1.0 else 1.0
    cum = np.cumsum(weights.weights_range(model, 1, table_size + 1) ** s)
    bits = np.float64(total).view(np.int64) - np.maximum(total - cum, 0.0).view(np.int64)
    span = int(bits[-1])
    shift = max(span.bit_length() - weights._GUIDE_BITS, 0)
    top = (span >> shift) + 1
    return cum, np.searchsorted(bits >> shift, np.arange(top + 2), side="left"), shift, top


TABLE_CASES = [
    pytest.param(model, s, id=f"{model.describe()}-s{s}")
    for model, s in (
        (LUROTH, 0.75),
        (LUROTH, 0.55),
        (weights.power_model(1.5), 1.0),
        (weights.power_log_model(2.0, 1.5), 1.0),
        (weights.explicit_prefix_model([0.3, 0.2], 2.5), 0.6),
        (weights.power_model(400.0), 1.0),
    )
]


def exact_draws(sampler, rng, size):
    """The draws of ``sampler.sample`` with every deep draw inverted to its digit."""
    digits = sampler.invert(rng.random(size))
    deep = np.flatnonzero(digits < 0)
    digits[deep] = [weights._invert_tail(sampler.model, sampler.s, float(r), sampler._table_size)
                    for r in np.negative(digits[deep]).view(np.float64)]
    return digits


def assert_labels_match(got, want, table_size):
    """The label contract: digits inside the table, and deep labels that map
    one-to-one onto the digits, so that every distinct count is the same."""
    inside = want <= table_size
    assert np.array_equal(got[inside], want[inside])
    assert (got[~inside] > table_size).all()
    pairs = np.unique(np.stack([got, want]), axis=1)
    assert np.unique(pairs[0]).size == np.unique(pairs[1]).size == pairs.shape[1]
    assert np.unique(got).size == np.unique(want).size


class TestSampling:
    @pytest.mark.parametrize("model, s", [
        (LUROTH, 0.75),
        (weights.power_model(1.5), 1.0),
        (weights.explicit_prefix_model([0.3, 0.2], 2.5), 0.6),
    ], ids=["luroth", "power", "explicit-prefix"])
    def test_draw_format(self, model, s, table_size=1 << 13):
        # one int64 per draw: the digit inside the table, and past it the
        # remaining mass total - u * total as negated float64 bits
        sampler = weights.DigitSampler(model, s, table_size=table_size)
        size = 3 * weights._SAMPLE_BLOCK + 5
        got = sampler.invert(substream(5, 0xA18).random(size))
        target = substream(5, 0xA18).random(size) * sampler.total
        digits = np.searchsorted(sampler._cum, target, side="right") + 1
        deep = digits > table_size
        assert deep.any()
        assert np.array_equal(got < 0, deep)
        assert np.array_equal(got[~deep], digits[~deep])
        mass = np.negative(got[deep]).view(np.float64)
        assert np.array_equal(mass, sampler.total - target[deep])
        inside = got[~deep]
        before = inside.copy()
        assert sampler.label(inside) is inside
        assert sampler.label(inside, np.arange(inside.size) + 7) is inside
        assert np.array_equal(inside, before)

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

    def test_luroth_draws_in_place(self):
        # the uniforms and the digits are the only word-sized arrays: 2 x 8 bytes per draw
        size = 1 << 20
        sampler = weights.DigitSampler(LUROTH)
        tracemalloc.start()
        try:
            sampler.sample(substream(3, 2), size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * size

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

    @pytest.mark.parametrize("table_size", [16, 1000, (1 << 16) + 7, 1 << 20])
    @pytest.mark.parametrize("model, s", TABLE_CASES)
    def test_piecewise_table_is_the_one_piece_table(self, model, s, table_size):
        sampler = weights.DigitSampler(model, s, table_size=table_size)
        cum, guide, shift, top = one_piece_table(model, s, table_size)
        assert np.array_equal(sampler._cum.view(np.int64), cum.view(np.int64))
        assert sampler._guide.dtype == guide.dtype
        assert np.array_equal(sampler._guide, guide)
        assert (sampler._shift, sampler._top) == (shift, top)
        assert sampler._padded[-1] == np.inf and sampler._cum.base is sampler._padded

    def test_build_holds_one_table(self):
        # the 8 MiB table and its 2**16-weight pieces: a one-piece build also
        # held an 8 MiB key temporary, 16.3 MiB in all
        tracemalloc.start()
        try:
            weights.DigitSampler(LUROTH, 0.75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * (1 << 20)

    def test_threads_keep_their_own_scratch(self):
        # threads that share a sampler, as simulate --threads does, each look
        # up in their own scratch: four workers on two cores, switching often
        sampler = weights.DigitSampler(weights.power_model(1.5), 0.8)
        uniforms = [substream(seed, 0xA19).random(2 * weights._SAMPLE_BLOCK + 5) for seed in range(12)]
        want = [sampler.invert(u.copy()) for u in uniforms]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(sampler.invert, u.copy()) for u in uniforms]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert all((w < 0).any() for w in want)

    def test_blocks_match_reference_draws(self):
        # several blocks, the last one partial, with draws past a small table
        model, s, size = weights.power_model(1.5), 1.0, 3 * weights._SAMPLE_BLOCK + 5
        sampler = weights.DigitSampler(model, s, table_size=1 << 13)
        target = substream(37, 0xA15).random(size) * sampler.total
        want = np.searchsorted(sampler._cum, target, side="right") + 1
        for i in np.flatnonzero(want > 1 << 13):
            want[i] = weights._invert_tail(model, s, sampler.total - target[i], 1 << 13)
        got = sampler.sample(substream(37, 0xA15), size)
        assert got.dtype == np.int64
        assert (want > 1 << 13).any()
        assert_labels_match(got, want, 1 << 13)

    @pytest.mark.parametrize("model, s, table_size", [
        (LUROTH, 1.0, 1 << 20),
        (weights.power_model(1.5), 1.0, 1 << 20),
        (weights.power_log_model(2.0, 1.5), 1.0, 1 << 20),
        (weights.explicit_prefix_model([0.3, 0.2], 2.5), 1.0, 1 << 20),
        (LUROTH, 0.75, 1 << 13),  # tilted, with draws past a small table
    ], ids=["luroth", "power-1.5", "power-log", "explicit-prefix", "luroth-s0.75-small"])
    def test_blocked_calls_equal_one_call(self, model, s, table_size):
        # a word drawn in pieces is the word drawn at once: each draw takes one
        # double.  Each call labels its own deep draws, so a piece of the word
        # matches the whole word's labels under the label contract, and draws
        # labelled once the word ends are the whole word's.
        sampler = weights.DigitSampler(model, s, table_size=table_size)
        block, size = weights._SAMPLE_BLOCK, 3 * weights._SAMPLE_BLOCK + 5
        whole = sampler.sample(substream(41, 0xA16), size)
        for cuts in ([block, 2 * block], [1, block - 1, block + 7, 3 * block]):
            rng = substream(41, 0xA16)
            ends = list(zip([0, *cuts], [*cuts, size]))
            for a, b in ends:
                assert_labels_match(sampler.sample(rng, b - a), whole[a:b], table_size)
            rng = substream(41, 0xA16)
            word = np.concatenate([sampler.invert(rng.random(b - a)) for a, b in ends])
            assert sampler.label(word) is word
            assert np.array_equal(word, whole)
        if table_size == 1 << 13:
            assert (whole > table_size).any()

    @pytest.mark.parametrize("model, s", [
        (LUROTH, 0.75),
        (weights.power_model(1.5), 1.0),
        (weights.power_log_model(2.0, 1.5), 0.8),
        (weights.explicit_prefix_model([0.3, 0.2], 2.5), 0.6),
    ], ids=["luroth", "power", "power-log", "explicit-prefix"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_labels_keep_digit_equality(self, model, s, seed, table_size=1 << 13, size=1 << 16):
        sampler = weights.DigitSampler(model, s, table_size=table_size)
        got = sampler.sample(substream(seed, 0xA17), size)
        want = exact_draws(sampler, substream(seed, 0xA17), size)
        assert np.count_nonzero(want > table_size) > 100
        # some deep digits repeat, and some draws are labelled without a digit
        assert np.unique(want[want > table_size]).size < np.count_nonzero(want > table_size)
        assert (got > 1 << 62).any()
        assert_labels_match(got, want, table_size)

    def test_labels_where_weights_rise_past_the_table(self):
        # power-log(3, 24) weights peak near digit 2972, past the 1024-entry
        # table, so the margin takes that peak, not the edge weight
        model = weights.power_log_model(3.0, 24.0)
        self.test_labels_keep_digit_equality(model, 1.0, 0, 1 << 10, 1_000)

    @pytest.mark.parametrize("model, m", [
        (LUROTH, 1025),
        (weights.power_model(1.5), 1025),
        (weights.explicit_prefix_model([0.1] * 6, 2.5), 3),
        (weights.power_log_model(3.0, 24.0), 1025),
        (weights.power_log_model(3.0, 24.0), 5000),
    ])
    def test_weight_bound_covers_the_tail(self, model, m):
        p = weights.weights_range(model, m, m + 100_000)
        bound = weights._weight_bound(model, m)
        assert bound >= p.max()
        assert bound <= p.max() * (1.0 + 1e-9)


def exceeds(sampler, u, K):
    """Whether the draws of the uniforms ``u`` exceed digit ``K`` (deep draws do)."""
    return sampler.invert(np.array(u, dtype=np.float64)).view(np.uint64) > K


class TestThreshold:
    @pytest.mark.parametrize("model, s", [
        (LUROTH, 1.0),
        (weights.power_model(1.5), 1.0),
        (weights.explicit_prefix_model([0.3, 0.2], 2.5), 1.0),
        (LUROTH, 0.75),
    ], ids=["luroth", "power-1.5", "explicit-prefix", "luroth-s0.75"])
    def test_least_uniform_past_each_digit(self, model, s):
        # every K the dense first-position table of simulate can hold
        sampler = weights.DigitSampler(model, s)
        K = np.arange((1 << 16) + 1 if s == 1.0 else 2000)  # 0 .. occupancy._DENSE
        c = np.array([sampler.threshold(int(k)) for k in K])
        assert c[0] == 0.0 and (c < 1.0).all() and (np.diff(c) >= 0).all()
        assert exceeds(sampler, c, K).all()
        assert not exceeds(sampler, np.nextafter(c[1:], 0.0), K[1:]).any()

    def test_table_threshold_is_the_cumulative_weight(self):
        sampler = weights.DigitSampler(weights.power_log_model(2.0, 1.5))
        for K in (1, 2, 100, 1 << 16):
            assert sampler.threshold(K) == sampler._cum[K - 1]

    def test_no_uniform_past_a_certain_digit(self):
        # power(400): p_1 rounds to 1, so every uniform below 1 draws digit 1
        sampler = weights.DigitSampler(weights.power_model(400.0))
        assert sampler.threshold(1) == 1.0
        assert sampler.invert(np.array([np.nextafter(1.0, 0.0)])).tolist() == [1]

    def test_past_the_table(self):
        with pytest.raises(DomainError, match="past the sampler table"):
            weights.DigitSampler(weights.power_model(1.5), table_size=16).threshold(17)

    def test_sample_labels_the_inverted_stream_uniforms(self):
        sampler = weights.DigitSampler(weights.power_model(1.5), table_size=1 << 10)
        u = substream(4, 2).random(5000)
        assert np.array_equal(sampler.sample(substream(4, 2), 5000),
                              sampler.label(sampler.invert(u.copy())))


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


class TestInvertTail:
    @pytest.mark.parametrize("lo", [1 << 10, 1000, 1 << 20])
    @pytest.mark.parametrize("model, s", TILTED_CASES)
    def test_digit_brackets_the_target(self, model, s, lo):
        # lo = 2**10 runs the searches across _EM_CUT; 1000 is no power of two
        top = lo << ((1 << 62) // lo).bit_length() - 1  # the doubling's last start
        raised = 0
        for target in fallback_targets(model, s, lo, 40, lo):
            try:
                k = weights._invert_tail(model, s, target, lo)
            except TiltThresholdError:
                raised += 1
                assert weights.tilted_tail_sum(model, top + 1, s) >= target
                continue
            assert weights.tilted_tail_sum(model, k + 1, s) < target
            assert k == lo or weights.tilted_tail_sum(model, k, s) >= target
        if model.rho * s < 1.1:
            assert raised > 0  # the 2**62 limit is reached

    def test_limit_follows_the_doubling(self):
        # from lo = 3 the search doubles to 3 * 2**60 and stops below 2**62,
        # so a digit near 4e18 is past its limit although it is below 2**62
        s = 0.525
        target = weights.tilted_tail_sum(LUROTH, 4 * 10**18, s)
        with pytest.raises(TiltThresholdError):
            weights._invert_tail(LUROTH, s, target, 3)
        assert weights._invert_tail(LUROTH, s, target, 1 << 20) > 3 << 60

    @pytest.mark.parametrize("model, s", TILTED_CASES)
    def test_float_tail_monotone(self, model, s):
        for start in (weights._EM_CUT - 40, (1 << 10) - 40, (1 << 20) - 40):
            tails = [weights.tilted_tail_sum(model, m, s) for m in range(start, start + 80)]
            assert all(np.diff(tails) < 0.0), start

    def test_threads_draw_the_serial_labels(self):
        # simulate's workers share one sampler; draws under frequent thread
        # switches, with deep draws inverted, equal the serial ones
        model, (_, s, _) = TILTED_KINDS["power"]
        sampler = weights.DigitSampler(model, s, table_size=1 << 10)

        def draw(i):
            return sampler.sample(substream(11, i), 2_000)

        want = [draw(i) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(draw, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
