"""Wire formats: digit-word lines and chunked CSV."""

import math

import numpy as np
import pytest

from ifsdigits import codec, weights
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
