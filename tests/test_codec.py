"""Digit words, cylinders, branch intervals, encoding, and wire formats."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifsdigits import codec, weights
from ifsdigits.errors import DomainError, PrecisionError
from ifsdigits.rng import substream

LUROTH = weights.luroth_model()
POWER3 = weights.power_model(3.0)


def rationals(max_den=2**32):
    return st.fractions(
        min_value=Fraction(0), max_value=Fraction(1), max_denominator=max_den
    ).filter(lambda x: 0 <= x < 1)


class TestCylinderGeometry:
    def test_single_digit_cylinders(self):
        for k in (1, 2, 7):
            cyl = codec.cylinder(LUROTH, (k,), layout="canonical")
            assert cyl.left_exact == Fraction(k - 1, k)
            assert cyl.diam_exact == Fraction(1, k * (k + 1))

    def test_classical_single_digit(self):
        cyl = codec.cylinder(LUROTH, (2,), layout="classical")
        assert cyl.left_exact == Fraction(1, 3)
        assert cyl.diam_exact == Fraction(1, 6)

    def test_diameter_is_weight_product(self):
        word = (3, 1, 4, 1, 5)
        cyl = codec.cylinder(LUROTH, word)
        expect = math.fsum(math.log(weights.weight(LUROTH, d)) for d in word)
        assert cyl.log_diam == pytest.approx(expect, rel=1e-12)
        assert cyl.diam_exact == Fraction(1, 12) * Fraction(1, 2) * Fraction(
            1, 20
        ) * Fraction(1, 2) * Fraction(1, 30)

    def test_nesting(self):
        outer = codec.cylinder(LUROTH, (2, 3))
        inner = codec.cylinder(LUROTH, (2, 3, 5))
        assert outer.left_exact <= inner.left_exact
        assert inner.left_exact + inner.diam_exact <= outer.left_exact + outer.diam_exact

    def test_long_word_log_space(self):
        rng = substream(1, 0xC0)
        word = weights.DigitSampler(LUROTH).sample(rng, 10_000)
        cyl = codec.cylinder(LUROTH, word, exact=False)
        direct = float(np.sum(np.log(weights.weights_range(LUROTH, 1, 1 + int(word.max()))[word - 1])))
        assert cyl.log_diam == pytest.approx(direct, rel=1e-9)
        assert cyl.left_exact is None

    def test_exact_depth_guard(self):
        with pytest.raises(PrecisionError):
            codec.cylinder(POWER3, (1, 2), exact=True)

    def test_bad_digits(self):
        with pytest.raises(DomainError):
            codec.cylinder(LUROTH, (0, 1))
        with pytest.raises(DomainError):
            codec.cylinder(LUROTH, (1, -3))


class TestPartition:
    def test_luroth_exact_adjacency(self):
        for layout in ("canonical", "classical"):
            prev_right = None
            for k in range(1, 101):
                left, right = codec.digit_interval(LUROTH, k, layout=layout, exact=True)
                assert right - left == Fraction(1, k * (k + 1))
                if prev_right is not None:
                    if layout == "canonical":
                        assert left == prev_right
                    else:
                        assert right == prev_left  # classical intervals descend
                prev_right = right
                prev_left = left

    def test_power_float_adjacency(self):
        prev = None
        for k in range(1, 101):
            left, right = codec.digit_interval(POWER3, k, layout="canonical", exact=False)
            assert right - left == pytest.approx(weights.weight(POWER3, k), rel=1e-12)
            if prev is not None:
                assert left == pytest.approx(prev, abs=1e-15)
            prev = right

    def test_cumulative_table_cache_is_bounded(self):
        cache = codec._cum_table
        for i in range(cache.cache_info().maxsize + 6):
            model = weights.power_model(2.0 + i / 100.0)
            left, right = codec.digit_interval(model, 2)
            assert right - left == pytest.approx(weights.weight(model, 2), rel=1e-12)
        assert cache.cache_info().currsize == cache.cache_info().maxsize == 64

    def test_canonical_luroth_closed_form(self):
        # I_k = [1 - 1/k, 1 - 1/(k+1)) for the luroth weights
        for k in (1, 2, 3, 10):
            left, right = codec.digit_interval(LUROTH, k, exact=True)
            assert left == 1 - Fraction(1, k)
            assert right == 1 - Fraction(1, k + 1)


class TestEncode:
    def test_known_classical_word(self):
        assert codec.encode(LUROTH, Fraction(7, 10), 4, layout="classical") == (
            1,
            2,
            2,
            2,
        )

    def test_known_canonical_first_digit(self):
        word = codec.encode(LUROTH, Fraction(3, 10), 3, layout="canonical")
        assert word[0] == 1  # 3/10 < 1/2

    def test_expansion_step_fixed_point(self):
        d, tx = codec.apply_expansion(LUROTH, Fraction(2, 5), layout="classical")
        assert (d, tx) == (2, Fraction(2, 5))
        d, tx = codec.apply_expansion(LUROTH, Fraction(7, 10), layout="classical")
        assert (d, tx) == (1, Fraction(2, 5))

    def test_zero_is_left_endpoint(self):
        d, tx = codec.apply_expansion(LUROTH, Fraction(0), layout="canonical")
        assert d == 1 and tx == 0

    @given(rationals())
    def test_roundtrip_exact(self, x):
        # classical branches tile (0, 1], canonical branches tile [0, 1)
        layouts = ("canonical",) if x == 0 else ("canonical", "classical")
        for layout in layouts:
            word = codec.encode(LUROTH, x, 12, layout=layout)
            cyl = codec.cylinder(LUROTH, word, layout=layout)
            assert cyl.contains(x)

    def test_roundtrip_deep(self):
        x = Fraction(355, 113 * 2**20)
        word = codec.encode(LUROTH, x, 40, layout="canonical")
        assert codec.cylinder(LUROTH, word).contains(x)

    def test_float_encode_power_model(self):
        x = 0.37
        word = codec.encode(POWER3, x, 8, layout="canonical")
        cyl = codec.cylinder(POWER3, word, exact=False)
        assert cyl.left <= x < cyl.left + cyl.diam

    def test_layout_statistics_agree(self):
        # both layouts give the same digit-frequency law under Lebesgue draws
        rng = substream(2, 0xC1)
        xs = rng.random(100_000)
        canon = np.array([codec.apply_expansion(LUROTH, x, layout="canonical")[0] for x in xs[:20_000]])
        classic = np.array([codec.apply_expansion(LUROTH, x, layout="classical")[0] for x in xs[:20_000]])
        for k in range(1, 6):
            pa = np.mean(canon == k)
            pb = np.mean(classic == k)
            p = weights.weight(LUROTH, k)
            sd = math.sqrt(p * (1 - p) / 20_000)
            assert abs(pa - p) < 4.5 * sd
            assert abs(pb - p) < 4.5 * sd


class TestLurothSeries:
    def test_single_term(self):
        assert codec.luroth_series_eval((2,)) == Fraction(1, 2)

    def test_two_terms(self):
        assert codec.luroth_series_eval((2, 3)) == Fraction(2, 3)

    def test_repeating_threes_fixed_point(self):
        # x = 1/3 + x/6 has the fixed point 2/5; partial sums converge to it
        for n in (5, 10):
            v = codec.luroth_series_eval((3,) * n)
            assert abs(v - Fraction(2, 5)) < Fraction(1, 6**(n - 1))

    def test_terms_argument(self):
        assert codec.luroth_series_eval((2, 3, 4), terms=2) == Fraction(2, 3)

    def test_digit_below_two_rejected(self):
        with pytest.raises(DomainError):
            codec.luroth_series_eval((2, 1, 3))

    def test_value_lies_in_cylinder(self):
        classical = (3, 2, 5, 4)
        value = codec.luroth_series_eval(classical)
        word = codec.from_classical_digits(classical)
        assert codec.cylinder(LUROTH, word, layout="classical").contains(value)

    def test_digit_translation_roundtrip(self):
        word = (1, 2, 2, 2)
        assert codec.from_classical_digits(codec.to_classical_digits(word)) == word


class TestWireFormats:
    def test_word_line_roundtrip(self):
        word = (3, 1, 4, 1, 5, 9, 2, 6)
        assert codec.word_from_line(codec.word_to_line(word)) == word

    def test_empty_line(self):
        assert codec.word_from_line("  \n") == ()

    def test_bad_line(self):
        with pytest.raises(DomainError):
            codec.word_from_line("3,x,4")

    def test_cylinder_json_roundtrip(self):
        cyl = codec.cylinder(LUROTH, (1, 2, 2, 2), layout="classical")
        obj = codec.cylinder_to_json(cyl)
        assert obj["left"] == "151/216"
        back = codec.cylinder_from_json(LUROTH, obj, layout="classical")
        assert back.digits == cyl.digits
        assert back.left_exact == cyl.left_exact

    def test_cylinder_json_mismatch_rejected(self):
        cyl = codec.cylinder(LUROTH, (1, 2, 2, 2), layout="classical")
        obj = codec.cylinder_to_json(cyl)
        obj["left"] = "1/2"
        with pytest.raises(DomainError):
            codec.cylinder_from_json(LUROTH, obj, layout="classical")

    def test_cylinder_json_needs_digits(self):
        with pytest.raises(DomainError):
            codec.cylinder_from_json(LUROTH, {"left": "0/1"})
