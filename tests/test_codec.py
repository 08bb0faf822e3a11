"""Input readers and wire formats: counts, digit words, word lines and chunked CSV."""

import json
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ifsdigits import cli, codec, linear, occupancy, sublinear, tilt, weights
from ifsdigits.errors import DomainError
from ifsdigits.rng import substream

LUROTH = weights.luroth_model()


class TestWireFormats:
    def test_word_line_roundtrip(self):
        word = (3, 1, 4, 1, 5, 9, 2, 6)
        assert codec.word_from_line(codec.word_to_line(word)) == word

    def test_empty_line(self):
        assert codec.word_from_line("  \n") == ()

    def test_bad_line(self):
        with pytest.raises(DomainError):
            codec.word_from_line("3,x,4")

    @pytest.mark.parametrize("line", ["0,1", "1,-3"])
    def test_nonpositive_digit(self, line):
        with pytest.raises(DomainError, match="bad digit-word line"):
            codec.word_from_line(line)


_WORD_CHUNK = codec.CSV_CHUNK_ROWS


@pytest.mark.parametrize("size", [0, 1, _WORD_CHUNK - 1, _WORD_CHUNK, _WORD_CHUNK + 1,
                                  2 * _WORD_CHUNK + 1])
class TestChunkedWordLine:
    @staticmethod
    def word(size):
        return substream(size, 0xC0DEC).integers(1, 10**15, size=size)

    def test_line_joins_the_chunks(self, size):
        word = self.word(size)
        # the whole-word expression the chunked line replaced
        assert codec.word_to_line(word) == ",".join(map(str, word.tolist()))

    def test_written_file_is_the_line(self, size, tmp_path):
        word = self.word(size)
        path = tmp_path / "word.txt"
        codec.write_word(path, word)
        assert path.read_bytes() == (",".join(map(str, word.tolist())) + "\n").encode()


# Every public function that takes a digit word: (word -> result, a sampled word it accepts).
_LINEAR = linear.build_block_schedule(LUROTH, 0.5, depth=4, k1=1)
_SUBLINEAR = sublinear.build_sublinear_schedule(
    weights.explicit_prefix_model((0.05, 0.4), 2.5),
    sublinear.profile_from_spec({"kind": "sqrt", "horizon": 1024}), 0.5,
)
_LINEAR_WORD = _LINEAR.sample_word(4, substream(4, 0x11EA))
_SUBLINEAR_WORD = _SUBLINEAR.sample_word(64, substream(4, 0x50B))
WORD_ENTRY_POINTS = [
    pytest.param(codec.word_to_line, _LINEAR_WORD, id="word_to_line"),
    pytest.param(occupancy.distinct_counts, _LINEAR_WORD, id="distinct_counts"),
    pytest.param(lambda w: weights.log_weights_of(LUROTH, w), _LINEAR_WORD, id="log_weights_of"),
    pytest.param(_LINEAR.log_mass, _LINEAR_WORD, id="log_mass"),
    pytest.param(_LINEAR.local_dimension, _LINEAR_WORD, id="local_dimension"),
    pytest.param(lambda w: linear.point_trace(_LINEAR, w), _LINEAR_WORD, id="point_trace"),
    pytest.param(lambda w: linear.sandwich_violations(0.5, w), _LINEAR_WORD,
                 id="linear.sandwich_violations"),
    pytest.param(lambda w: vars(_SUBLINEAR.ratio_trace(w)), _SUBLINEAR_WORD, id="ratio_trace"),
    pytest.param(_SUBLINEAR.to_model_digits, _SUBLINEAR_WORD, id="to_model_digits"),
    pytest.param(_SUBLINEAR.sandwich_violations, _SUBLINEAR_WORD,
                 id="SublinearSchedule.sandwich_violations"),
]


def _plain(result):
    if isinstance(result, dict):
        return {key: np.asarray(value).tolist() for key, value in result.items()}
    return np.asarray(result).tolist()


@pytest.mark.parametrize("entry, word", WORD_ENTRY_POINTS)
class TestWordReader:
    """Each entry point reads its word through ``codec.as_word``."""

    @pytest.mark.parametrize("bad", [[1, 1.5], [1, 0]])
    def test_refuses_other_than_positive_integers(self, entry, word, bad):
        with pytest.raises(DomainError, match="digits must be positive integers"):
            entry(bad)

    def test_float_copy_reads_the_same(self, entry, word):
        assert _plain(entry(word.astype(np.float64))) == _plain(entry(word))


def _config_seed(seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "cfg.json")
        path.write_text(json.dumps({"seed": seed}), encoding="utf-8")
        return cli._resolve(SimpleNamespace(config=str(path)))[1]


def _random(rng):
    return rng.random(2).tolist()


_BASE = weights.DigitSampler(LUROTH)
_TILTED = weights.DigitSampler(LUROTH, s=0.75, table_size=16)  # some draws fall past the table


def _draws(sampler):
    return sampler.sample(substream(1, 2), 9).tolist()


def _k1_base(k1):
    return linear.build_block_schedule(LUROTH, 0.5, 3, k1=k1).base


# Every public function that takes a count, size, index or seed, as
# (count -> plain result, a count it accepts, the least count it accepts).
# Before codec.as_count, some of them ran at a truncated float count
# (bound_chain, checkpoints, k1, potter_scan, weights_range, substream) and
# others ended in a TypeError or IndexError traceback.
COUNT_ENTRY_POINTS = [
    pytest.param(lambda k: weights.weight(LUROTH, k), 3, 1, id="weight"),
    pytest.param(lambda k: weights.slowly_varying(LUROTH, k), 3, 1, id="slowly_varying"),
    pytest.param(lambda lo: weights.weights_range(LUROTH, lo, 5).tolist(), 2, 1, id="weights_range-lo"),
    pytest.param(lambda hi: weights.weights_range(LUROTH, 1, hi).tolist(), 3, 1, id="weights_range-hi"),
    pytest.param(lambda m: weights.tail_sum(LUROTH, m), 3, 1, id="tail_sum"),
    pytest.param(lambda m: weights.tilted_tail_sum(LUROTH, m, 0.75), 3, 1, id="tilted_tail_sum"),
    pytest.param(lambda k: weights.partial_sum_exponent(LUROTH, k), 3, 1, id="partial_sum_exponent"),
    pytest.param(lambda size: _BASE.sample(substream(1, 2), size).tolist(), 3, 0,
                 id="DigitSampler.sample"),
    pytest.param(lambda size: _TILTED.draw(substream(1, 2), size)[0].tolist(), 3, 0,
                 id="DigitSampler.draw"),
    pytest.param(lambda t: _draws(weights.DigitSampler(LUROTH, 0.75, table_size=t)), 16, 1,
                 id="DigitSampler-table_size"),
    pytest.param(lambda limit: weights.potter_scan(LUROTH, 1.0, limit), 8, 4, id="potter_scan"),
    pytest.param(lambda n: occupancy.expected_distinct(LUROTH, n), 5, 1, id="expected_distinct"),
    pytest.param(lambda n: occupancy.monte_carlo_law(LUROTH, n, 2, 1), 64, 1, id="monte_carlo_law-n"),
    pytest.param(lambda trials: occupancy.monte_carlo_law(LUROTH, 64, trials, 1), 2, 1,
                 id="monte_carlo_law-trials"),
    pytest.param(lambda c: occupancy.monte_carlo_law(LUROTH, 64, 2, 1, checkpoints=(c, 64)), 8, 1,
                 id="monte_carlo_law-checkpoint"),
    pytest.param(lambda threads: occupancy.monte_carlo_law(LUROTH, 64, 2, 1, threads=threads), 2, 1,
                 id="monte_carlo_law-threads"),
    pytest.param(lambda n: tilt.distinct_forces_large_check(n, 2), 3, 1, id="lemma-n_max"),
    pytest.param(lambda v: tilt.distinct_forces_large_check(3, v), 2, 1, id="lemma-value_max"),
    pytest.param(lambda n: tilt.distinct_threshold(n, 0.5), 7, 1, id="distinct_threshold"),
    pytest.param(lambda n: tilt.cylinder_sum_exact(LUROTH, n, 0.75, 0.5, 4), 3, 1,
                 id="cylinder_sum_exact-n"),
    pytest.param(lambda cap: tilt.cylinder_sum_exact(LUROTH, 3, 0.75, 0.5, cap), 4, 1,
                 id="cylinder_sum_exact-cap"),
    pytest.param(lambda n: tilt.cylinder_sum_mc(LUROTH, n, 0.75, 0.5, 50, 1), 4, 1,
                 id="cylinder_sum_mc-n"),
    pytest.param(lambda trials: tilt.cylinder_sum_mc(LUROTH, 4, 0.75, 0.5, trials, 1), 50, 1,
                 id="cylinder_sum_mc-trials"),
    pytest.param(lambda n: tilt.cylinder_sums_mc(LUROTH, (3, n), 0.75, 0.5, 50, 1), 4, 1,
                 id="cylinder_sums_mc-n"),
    pytest.param(lambda n: tilt.bound_chain(LUROTH, n, 0.75, 0.5), 40, 1, id="bound_chain"),
    pytest.param(lambda L: linear.distinctness_profile(0.5, L).r.tolist(), 6, 1,
                 id="distinctness_profile"),
    pytest.param(lambda N: linear.count_blocks(N, 4, 0.5), 5, 1, id="count_blocks-N"),
    pytest.param(lambda L: linear.count_blocks(5, L, 0.5), 4, 1, id="count_blocks-L"),
    pytest.param(lambda N: list(linear.enumerate_blocks(N, 3, 0.5)), 3, 1, id="enumerate_blocks"),
    pytest.param(lambda limit: list(linear.enumerate_blocks(3, 3, 0.5, limit=limit)), 100, 1,
                 id="enumerate_blocks-limit"),
    pytest.param(lambda d: linear.build_block_schedule(LUROTH, 0.5, d, k1=1).profile.r.tolist(), 3, 1,
                 id="build_block_schedule-depth"),
    pytest.param(_k1_base, 2, 1, id="build_block_schedule-k1"),
    pytest.param(lambda j: list(_LINEAR.window(j)), 2, 1, id="BlockSchedule.window"),
    pytest.param(_LINEAR.boundary, 2, 0, id="BlockSchedule.boundary"),
    pytest.param(lambda j: _LINEAR.sample_block(j, substream(1, 2)).tolist(), 2, 1,
                 id="BlockSchedule.sample_block"),
    pytest.param(lambda d: _LINEAR.sample_word(d, substream(1, 2)).tolist(), 3, 1,
                 id="BlockSchedule.sample_word"),
    pytest.param(lambda h: sublinear.profile_from_spec({"kind": "sqrt", "horizon": h}).values.tolist(),
                 1024, 10, id="profile_from_spec"),
    pytest.param(lambda n: _SUBLINEAR.sample_word(n, substream(1, 2)).tolist(), 20, 1,
                 id="SublinearSchedule.sample_word"),
    pytest.param(lambda seed: _random(substream(seed)), 5, 0, id="substream-seed"),
    pytest.param(lambda index: _random(substream(1, index)), 3, 0, id="substream-path"),
    pytest.param(_config_seed, 42, 0, id="config-seed"),
]


@pytest.mark.parametrize("entry, good, least", COUNT_ENTRY_POINTS)
class TestCountReader:
    """Each entry point reads its counts through ``codec.as_count``."""

    @pytest.mark.parametrize("bad", ["floor", -1, 2.5, 2.0, True, "3", None])
    def test_refuses_other_than_integers_at_the_floor(self, entry, good, least, bad):
        if entry is _k1_base and bad is None:
            pytest.skip("k1=None asks for the scan-derived start index")
        with pytest.raises(DomainError):
            entry(least - 1 if bad == "floor" else bad)

    @pytest.mark.parametrize("kind", [np.int64, np.uint32])
    def test_numpy_integer_reads_the_same(self, entry, good, least, kind):
        if entry is _config_seed:
            pytest.skip("a JSON config holds no numpy integers")
        assert entry(kind(good)) == entry(good)


def test_count_messages():
    with pytest.raises(DomainError, match=r"^n is not an integer: 2\.0$"):
        codec.as_count(2.0, "n")
    with pytest.raises(DomainError, match="^n must be a positive integer, got 0$"):
        codec.as_count(0, "n")
    with pytest.raises(DomainError, match="^seed must be a non-negative integer, got -1$"):
        codec.as_count(np.int64(-1), "seed", least=0)
    with pytest.raises(DomainError, match="^horizon must be at least 10, got 9$"):
        codec.as_count(9, "horizon", least=10)
    assert type(codec.as_count(np.uint32(7), "n")) is int


def f_string_rows(rows, fmt):
    """Row-at-a-time CSV, the way each table was formatted before csv_chunks."""
    return "".join(fmt(*row) + "\n" for row in rows)


def _cell(v):
    """One CSV cell the way the row-at-a-time tables wrote it."""
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


_CHUNK = codec.CSV_CHUNK_ROWS
RUN_COLUMNS = [
    pytest.param(np.repeat([1.5, 2.25], [_CHUNK + 3, 10]), id="run-across-chunks"),
    pytest.param(np.repeat([-0.0, 0.0, -0.0], [5, 7, 3]), id="signed-zeros"),
    pytest.param(np.repeat([np.nan, np.inf, -np.inf, np.nan, 1.0], [4, 3, 2, 1, 2]),
                 id="non-finite"),
    pytest.param(np.array([np.nan, -np.nan, np.float64(np.nan) * -1]), id="nan-payloads"),
    pytest.param(np.array([3.0]), id="length-1"),
    pytest.param(np.array([], dtype=np.float64), id="length-0"),
    pytest.param(np.repeat([True, False, True], [3, 1, _CHUNK]), id="bool"),
    pytest.param(np.repeat(np.array([7, -7, 2**31 - 1], dtype=np.int32), [2, _CHUNK, 4]),
                 id="int32"),
    pytest.param(np.repeat(np.array([0.1, -0.0, 0.0, 3e38], dtype=np.float32), [3, 2, 2, 5]),
                 id="float32"),
    pytest.param(np.repeat(np.array(["a", "a", "b"], dtype=object), [2, _CHUNK, 1]),
                 id="object-strings"),
    pytest.param(np.arange(2 * _CHUNK + 1, dtype=np.int64), id="all-distinct"),
]


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
            (["--n", "3", "--mode", "exact", "--cap", "4"], DEFAULT_SEED,
             tilt.cylinder_sum_exact(LUROTH, 3, 0.75, 0.5, 4)),  # stderr is None
            (["--n", "4", "--trials", "200", "--seed", "1"], 1,
             tilt.cylinder_sum_mc(LUROTH, 4, 0.75, 0.5, 200, 1)),  # deficit is None
        ]
        rows = []
        for flags, seed, rec in runs:
            b = tilt.bound_chain(LUROTH, rec.n, 0.75, 0.5)
            row = (
                f"{rec.n},{rec.s!r},{rec.theta!r},{rec.mode},{rec.value!r},"
                f"{'' if rec.stderr is None else repr(rec.stderr)},"
                f"{'' if rec.truncation_deficit is None else repr(rec.truncation_deficit)},"
                f"{math.exp(min(b.log_binomial_bound, 0.0))!r}"
            )
            want = (
                f"# seed={seed} model=luroth\n"
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

    @pytest.mark.parametrize("column", RUN_COLUMNS)
    def test_column_equals_row_at_a_time(self, column):
        index = np.arange(column.size)
        want = "i,x\n" + f_string_rows(zip(index.tolist(), column), lambda i, v: f"{i},{_cell(v)}")
        assert "".join(codec.csv_chunks({"i": index, "x": column})) == want

    def test_each_run_formatted_once_per_chunk(self, monkeypatch):
        calls = []

        def counting_repr(v):
            calls.append(v)
            return repr(v)

        monkeypatch.setattr(codec, "repr", counting_repr, raising=False)
        column = np.repeat([0.5, -0.0, 0.25], [_CHUNK - 1, 2, _CHUNK - 1])  # 3 runs, 2 chunks
        text = "".join(codec.csv_chunks({"x": column}))
        assert text == "x\n" + "".join(f"{v!r}\n" for v in column.tolist())
        assert 3 <= len(calls) <= 3 + 2
