"""Digit words, cylinders, branch intervals, encoding, and wire formats."""

import math
import time
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

    @pytest.mark.parametrize("call", [
        lambda: codec.cylinder(weights.power_model(3.0), [2**28]),
        lambda: codec.digit_interval(weights.power_model(3.0), 2**28),
        lambda: codec.encode(weights.power_model(1.2), 1 - 1e-9, 1),
    ], ids=["cylinder", "digit_interval", "encode"])
    def test_oversized_table_raises_before_allocating(self, call):
        # each of these would ask for a table of 2**23 to 2**29 entries
        start = time.perf_counter()
        with pytest.raises(PrecisionError, match="cap"):
            call()
        assert time.perf_counter() - start < 1.0

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
        word = tuple(d - 1 for d in classical)  # branch index k = d - 1
        assert codec.cylinder(LUROTH, word, layout="classical").contains(value)


class TestWireFormats:
    def test_word_line_roundtrip(self):
        word = (3, 1, 4, 1, 5, 9, 2, 6)
        assert codec.word_from_line(codec.word_to_line(word)) == word

    def test_empty_line(self):
        assert codec.word_from_line("  \n") == ()

    def test_bad_line(self):
        with pytest.raises(DomainError):
            codec.word_from_line("3,x,4")


def f_string_rows(rows, fmt):
    """Row-at-a-time CSV, the way each table was formatted before csv_chunks."""
    return "".join(fmt(*row) + "\n" for row in rows)


class TestCsvChunks:
    def test_weights_table(self):
        rows = [("p", 1, 0.5), ("cum", 1, 0.5), ("s", 2, weights.partial_sum_exponent(LUROTH, 2)),
                ("tilted_tail(s=0.75)", 100, -0.0), ("potter_k_eps(eps=0.1)", 10000, 3.0)]
        want = "quantity,k,value\n" + f_string_rows(rows, lambda q, k, v: f"{q},{k},{float(v)!r}")
        cols = {"quantity": [r[0] for r in rows], "k": [r[1] for r in rows],
                "value": [r[2] for r in rows]}
        assert "".join(codec.csv_chunks(cols)) == want

    def test_linear_trace_table(self):
        from ifsdigits import linear

        sched = linear.build_block_schedule(LUROTH, 0.5, depth=6, k1=1)
        trace = linear.point_trace(sched, sched.sample_word(6, substream(2, 0x11EA, 6)))
        assert np.signbit(trace["local_dim"][0])  # -0.0 in the first row
        t = trace

        def fmt(i):
            return (
                f"{t['n'][i]},{t['distinct'][i]},{float(t['target'][i])!r},"
                f"{float(t['upper'][i])!r},{float(t['log_mass'][i])!r},"
                f"{float(t['log_diam'][i])!r},{float(t['local_dim'][i])!r}"
            )

        want = ",".join(trace) + "\n" + f_string_rows([(i,) for i in range(t["n"].size)], fmt)
        assert "".join(codec.csv_chunks(trace)) == want
        assert ",-0.0\n" in want

    def test_sublinear_table_across_chunks(self):
        rows = 2 * codec.CSV_CHUNK_ROWS + 5
        rng = substream(5, 1)
        cols = {
            "n": np.arange(1, rows + 1),
            "log_ratio": rng.normal(size=rows),
            "free_part": np.where(rng.random(rows) < 0.5, -0.0, 0.0),
            "forced_part": rng.normal(size=rows) * 1e-300,
            "f_n": rng.integers(0, 100, rows),
            "K_n": rng.integers(1, 10**12, rows),
            "D_n": rng.integers(0, 100, rows),
        }
        c = cols

        def fmt(i):
            return (
                f"{i + 1},{float(c['log_ratio'][i])!r},{float(c['free_part'][i])!r},"
                f"{float(c['forced_part'][i])!r},{c['f_n'][i]},{c['K_n'][i]},{c['D_n'][i]}"
            )

        want = ",".join(cols) + "\n" + f_string_rows([(i,) for i in range(rows)], fmt)
        chunks = list(codec.csv_chunks(cols))
        assert len(chunks) == 1 + 3
        assert all(chunk.endswith("\n") for chunk in chunks)
        assert "".join(chunks) == want

    def test_occupancy_law_report(self, tmp_path, monkeypatch):
        from ifsdigits import cli, occupancy

        path = tmp_path / "law.csv"
        for karlin in (None, math.sqrt(math.pi)):
            report = occupancy.LawReport(
                model_desc="m", rho=2.0, n=8, trials=3, seed=7, checkpoints=(2, 4, 8),
                means=(1.0, -0.0, 0.1), sds=(0.0, 0.5, 1e-17),
                exact_expectations=(1.5, 2.25, 3.0), karlin=karlin, mean_final_distinct=3.0,
            )
            monkeypatch.setattr(occupancy, "monte_carlo_law", lambda *a, **k: report)
            k = "" if karlin is None else repr(karlin)
            want = (
                "# seed=7 model=m trials=3\n"
                "n,checkpoint,mean,sd,exact_expectation,karlin_constant\n"
                + "".join(
                    f"{report.n},{c},{report.means[i]!r},{report.sds[i]!r},"
                    f"{report.exact_expectations[i]!r},{k}\n"
                    for i, c in enumerate(report.checkpoints)
                )
            )
            assert cli.main(["simulate", "--n", "8", "--trials", "3", "--out", str(path)]) == 0
            assert path.read_text(encoding="utf-8") == want

    def test_tilt_records_with_empty_cells(self, tmp_path):
        from ifsdigits import cli, tilt
        from ifsdigits.rng import DEFAULT_SEED

        path = tmp_path / "cylsum.csv"
        runs = [
            (["--n", "3", "--mode", "exact", "--cap", "4"],
             tilt.cylinder_sum_exact(LUROTH, 3, 0.75, 0.5, 4)),  # stderr is None
            (["--n", "4", "--trials", "200", "--seed", "1"],
             tilt.cylinder_sum_mc(LUROTH, 4, 0.75, 0.5, 200, 1)),  # deficit is None
        ]
        rows = []
        for flags, rec in runs:
            b = tilt.bound_chain(LUROTH, rec.n, 0.75, 0.5)
            row = (
                f"{rec.n},{rec.s!r},{rec.theta!r},{rec.mode},{rec.value!r},"
                f"{'' if rec.stderr is None else repr(rec.stderr)},"
                f"{'' if rec.truncation_deficit is None else repr(rec.truncation_deficit)},"
                f"{math.exp(min(b.log_binomial_bound, 0.0))!r}"
            )
            want = (
                f"# seed={rec.seed or DEFAULT_SEED} model=luroth\n"
                "n,s,theta,mode,value,stderr,truncation_deficit,binomial_bound\n" + row + "\n"
            )
            argv = ["cylsum", "--s", "0.75", "--theta", "0.5", *flags, "--out", str(path)]
            assert cli.main(argv) == 0
            assert path.read_text(encoding="utf-8") == want
            rows.append(row.split(","))
        assert rows[0][5] == "" and rows[0][6] != ""  # exact: no stderr
        assert rows[1][5] != "" and rows[1][6] == ""  # Monte Carlo: no deficit

    def test_empty_table_is_header_only(self):
        assert "".join(codec.csv_chunks({"a": [], "b": []})) == "a,b\n"
