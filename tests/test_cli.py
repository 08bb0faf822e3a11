"""Command-line behavior: exit codes, reproducibility, wire formats."""

import csv
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ifsdigits import cli, codec, linear, occupancy, sublinear, tilt, verify, weights
from ifsdigits.rng import DEFAULT_SEED, substream

ROOT = Path(__file__).resolve().parents[1]

TILTED_TAIL_100_075 = 0.2000001249977

# numpy's float64 pow at -1.5, -2 and -2.5 and log(x + 1)**1.5, x = 1..8193, on the
# build that recorded the weight-table digests of TestWeightsCommand
NUMPY_POW_LOG_DIGEST = "bfe2a945d0f4a6684a15292debd5da5de8423c5a5aca6428850e98ee85ba752e"

# construct sublinear --t 0.5 --n 40 --seed 9 on explicit-prefix(0.05, 0.4; rho 2.5)
SUBLINEAR_EXPLICIT_PREFIX_WORD = (
    "5,2,4,1,3,2,2,4,6,2,4,2,2,2,3,7,3,4,3,2,2,2,3,3,8,2,2,3,2,3,2,2,2,3,3,9,2,2,2,2"
)


# tracemalloc peak allowed to the construct path's per-digit stages on 2**20-digit
# words, as a multiple of the bytes of the arrays they return: point_trace's 7 and
# ratio_trace's 3, 80 MB in all.  Measured: 80.2 MB, a ratio of 1.002.  One more
# whole-word array (8 MB), or one Python object per digit while the word file is
# written (about 72 MB), goes past it.
CONSTRUCT_PEAK_RATIO = 1.1

# Bytes per digit by which a command's tracemalloc peak may grow past the arrays it
# holds per digit: less than one Python float and its list slot (32 bytes), so
# that no Python object per digit fits in it.
PER_DIGIT_SLACK = 24


def run_cli(tmp_path, argv, name="out.txt"):
    """Run the CLI writing to a temp file; return (exit code, text)."""
    path = tmp_path / name
    code = cli.main(list(argv) + ["--out", str(path)])
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    return code, text


def assert_canonical_json(text):
    """``--format json`` output is exactly ``json.dumps(..., sort_keys=True, indent=2)``."""
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestExitCodes:
    def test_success(self, tmp_path):
        code, text = run_cli(tmp_path, ["weights", "--k-max", "3"])
        assert code == 0
        assert text.startswith("# model=")

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--trials", "10"])  # missing --n
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "quick", "--fail-inject"])  # tests patch verify.CHECKS instead
        assert exc.value.code == 2

    def test_validation_error_is_3(self, capsys):
        # divergent tilt exponent for the quadratic tail
        code = cli.main(
            ["cylsum", "--n", "4", "--s", "0.5", "--theta", "0.5", "--trials", "10"]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["construct", "linear", "--theta", "nan", "--depth", "3"],
        ["construct", "linear", "--theta", "inf", "--depth", "3"],
        ["cylsum", "--n", "4", "--s", "0.75", "--theta", "nan", "--trials", "10"],
    ])
    def test_non_finite_rate_is_3(self, capsys, argv):
        assert cli.main(argv) == 3
        assert "theta must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["weights", "--tilted-tail", "1", "inf"],
        ["weights", "--tilted-tail", "1", "nan"],
        ["cylsum", "--n", "4", "--s", "inf", "--theta", "0.5", "--trials", "10"],
    ])
    def test_non_finite_tilt_exponent_is_3(self, capsys, argv):
        assert cli.main(argv) == 3
        assert "tilt exponent must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_potter_epsilon_is_3(self, capsys, eps):
        # a NaN epsilon ended in a ValueError traceback, an infinite one in C_eps = 1.0
        assert cli.main(["weights", "--k-max", "0", "--potter", eps]) == 3
        err = capsys.readouterr().err
        assert err == f"error: epsilon must be positive and finite, got {float(eps)!r}\n"

    @pytest.mark.parametrize("f5", [2.7, "x", None, 1e30])
    def test_non_integer_profile_table_is_3(self, capsys, f5):
        table = [math.isqrt(n) for n in range(1025)]
        table[5] = f5
        profile = json.dumps({"kind": "table", "table": table})
        argv = ["construct", "sublinear", "--t", "0.5", "--n", "100", "--profile", profile]
        assert cli.main(argv) == 3
        assert "profile table entries must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, what", [
        (["simulate", "--n", "100", "--trials", "2", "--threads", "0"], "threads"),
        (["simulate", "--n", "100", "--trials", "2", "--threads", "-7"], "threads"),
        (["verify", "quick", "--threads", "-2"], "threads"),
        (["weights", "--k-max", "-1"], "--k-max"),
    ])
    def test_non_positive_count_is_3(self, capsys, argv, what):
        assert cli.main(argv) == 3
        assert f"error: {what} must be" in capsys.readouterr().err

    def test_late_weight_peak_is_3(self, capsys):
        # power-log(2, 36) weights rise up to digit 65,659,951
        argv = ["construct", "sublinear", "--t", "0.5", "--n", "100",
                "--model", "power-log", "--rho", "2", "--gamma", "36"]
        assert cli.main(argv) == 3
        assert "the weights rise up to digit 65659951" in capsys.readouterr().err

    def test_underflowed_tilted_tail_is_3(self, capsys, monkeypatch):
        # past r = 10,000 the tilted tail of power(100) underflows to 0: no binomial
        # bound, and the error comes before any Monte Carlo draw
        def draw(*args):
            raise AssertionError("drew before the bound chain was checked")

        monkeypatch.setattr(tilt, "cylinder_sums_mc", draw)
        argv = ["cylsum", "--model", "power", "--rho", "100", "--s", "1", "--n", "40000",
                "--theta", "1", "--trials", "2"]
        assert cli.main(argv) == 3
        assert "the tilted tail from digit r = 10000 underflows to 0" in capsys.readouterr().err

    def test_zero_k_max_prints_no_weights(self, tmp_path):
        code, text = run_cli(tmp_path, ["weights", "--k-max", "0", "--tail", "10"])
        assert code == 0
        assert text.splitlines()[1:] == ["quantity,k,value", "tail,10,0.1"]

    def test_integral_float_profile_table_reads_as_integers(self, tmp_path):
        table = [math.isqrt(n) for n in range(1025)]
        texts = []
        for f5 in (2, 2.0):
            table[5] = f5
            profile = json.dumps({"kind": "table", "table": table})
            code, text = run_cli(tmp_path, ["construct", "sublinear", "--t", "0.5", "--n", "100",
                                            "--profile", profile])
            assert code == 0
            texts.append(text)
        assert texts[0] == texts[1]

    def test_bad_target_is_3(self, capsys):
        code = cli.main(
            ["construct", "sublinear", "--t", "1.5", "--n", "100"]
        )
        assert code == 3
        capsys.readouterr()

    def test_missing_config_is_3(self, capsys):
        code = cli.main(
            ["weights", "--k-max", "2", "--config", "/nonexistent/cfg.json"]
        )
        assert code == 3
        capsys.readouterr()

    @pytest.mark.parametrize("content", ["{bad", '{"model": 5}', '{"seed": "abc"}'])
    def test_bad_config_is_3(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content, encoding="utf-8")
        code = cli.main(["simulate", "--n", "10", "--trials", "2", "--config", str(cfg)])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_profile_json_is_3(self, capsys):
        code = cli.main(
            ["construct", "sublinear", "--t", "0.5", "--n", "100", "--profile", "{bad"]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_underflowing_prefix_tail_is_3(self, capsys):
        # 7**-400 underflows, so the tail divisor past the prefix would be 0
        code = cli.main(["weights", "--model", "explicit-prefix", "--rho", "400",
                         "--prefix", "0.1,0.1,0.1,0.1,0.1,0.1", "--k-max", "9"])
        assert code == 3
        assert "not a positive normal float" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "10", "--trials", "1", "--config", "{dir}"],
        ["simulate", "--n", "10", "--trials", "1", "--out", "{dir}"],
        ["construct", "linear", "--theta", "0.5", "--depth", "3", "--word-out", "{dir}"],
    ], ids=["config", "out", "word-out"])
    def test_directory_as_file_is_3(self, tmp_path, capsys, argv):
        code = cli.main([a.replace("{dir}", str(tmp_path)) for a in argv])
        assert code == 3
        assert "Is a directory" in capsys.readouterr().err

    def test_non_utf8_config_is_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark
        code = cli.main(["simulate", "--n", "10", "--trials", "1", "--config", str(cfg)])
        assert code == 3
        assert "config file is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--gamma", "300", "--k-max", "3"],  # the tail divisor needs Gamma(301)
        ["--gamma", "100", "--tilted-tail", "5", "2"],  # the s = 2 tail needs Gamma(201)
    ], ids=["model", "tilted-tail"])
    def test_overflowing_power_log_tail_is_3(self, capsys, argv):
        code = cli.main(["weights", "--model", "power-log", "--rho", "2"] + argv)
        assert code == 3
        assert "overflows a float" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--model", "power-log", "--rho", "3", "--gamma", "1e10", "--n", "1000",
          "--trials", "2"], "sum of k**-3 * log(k+1)**1e+10 over k >= 1 overflows a float"),
        (["weights", "--model", "power-log", "--rho", "1.01", "--gamma", "34", "--tilted-tail",
          "8191", "50"], "sum of k**-50.5 * log(k+1)**1700 over k >= 8191 overflows a float"),
        (["weights", "--model", "power-log", "--rho", "1.5", "--gamma", "50", "--tilted-tail",
          "2", "30"], "sum of k**-45 * log(k+1)**1500 over k >= 2 overflows a float"),
        (["weights", "--model", "power-log", "--rho", "200", "--gamma", "300", "--k-max",
          "50000"], "weights of power-log(rho=200, gamma=300) leave the float range"),
        (["simulate", "--model", "power-log", "--rho", "200", "--gamma", "300", "--n", "100",
          "--trials", "2"], "weights of power-log(rho=200, gamma=300) leave the float range"),
        (["weights", "--model", "power-log", "--rho", "200", "--gamma", "300", "--potter", "0.1"],
         "weight p_42 underflows to 0 in the Potter scan range 1..10000"),
    ], ids=["simulate", "tilted-tail", "tilted-tail-head", "k-max", "sampler-table", "potter"])
    def test_log_factor_overflow_is_3_without_warning(self, capsys, argv, message):
        # log(k+1)**gamma leaves the float range: numpy warned on stderr before the
        # error line, the first three with this very line; the k-max run ended in
        # an OverflowError traceback, and the Potter scan read its NaNs as a failed
        # half-bound
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 3
        assert caught == []
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, where", [
        (["weights", "--model", "power", "--rho", "1.01", "--tilted-tail", "1", "200",
          "--k-max", "0"], "M = 1, s = 200.0"),
        (["cylsum", "--model", "power", "--rho", "1.5", "--s", "800", "--n", "4",
          "--theta", "0.5", "--trials", "10"], "M = 1, s = 800.0"),
        (["weights", "--model", "explicit-prefix", "--prefix", "0.1", "--rho", "3",
          "--tilted-tail", "2", "700", "--k-max", "0"], "M = 2, s = 700.0"),
        (["weights", "--tilted-tail", "1", "2e304", "--k-max", "0"], "M = 1, s = 2e+304"),
        (["weights", "--model", "power", "--rho", "1e308", "--tilted-tail", "2", "2",
          "--k-max", "0"], "M = 2, s = 2.0"),
    ], ids=["overflow", "cylsum-overflow", "zero-divisor", "luroth-nan", "power-nan"])
    def test_tilted_tail_out_of_float_range_is_3(self, capsys, argv, where):
        # these once ended in an OverflowError or ZeroDivisionError traceback, or wrote nan
        assert cli.main(argv) == 3
        assert f"error: tilted tail sum at {where} " in capsys.readouterr().err

    def test_non_numeric_prefix_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["weights", "--model", "explicit-prefix", "--rho", "2.5", "--prefix", "a,b"])
        assert exc.value.code == 2
        assert "--prefix" in capsys.readouterr().err

    def test_non_numeric_tilted_tail_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["weights", "--tilted-tail", "10", "abc"])
        assert exc.value.code == 2
        assert "--tilted-tail" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["cylsum", "--n", ",", "--s", "0.75", "--theta", "0.5"],
        ["cylsum", "--n", "4,,8", "--s", "0.75", "--theta", "0.5"],
        ["simulate", "--n", "10", "--trials", "2", "--checkpoints", ","],
        ["weights", "--model", "explicit-prefix", "--rho", "2.5", "--prefix", "0.3,"],
        ["weights", "--model", "explicit-prefix", "--rho", "2.5", "--prefix", ","],
    ], ids=["n-comma", "n-inner", "checkpoints-comma", "prefix-trailing", "prefix-comma"])
    def test_empty_list_item_is_2(self, tmp_path, capsys, argv):
        # these once ran without the empty items: no rows, n = 4 and 8, the
        # default checkpoints, and one prefix weight
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, argv)
        assert exc.value.code == 2
        assert "invalid _parse_" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    def test_non_integer_tail_start_is_3(self, capsys):
        code = cli.main(["weights", "--tilted-tail", "2.5", "0.75"])
        assert code == 3
        assert "tail start is not an integer: 2.5" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", ["22", "40", "70"])
    def test_too_deep_linear_is_3(self, capsys, depth):
        code = cli.main(["construct", "linear", "--theta", "0.5", "--depth", depth])
        assert code == 3
        assert "depth 21" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "10000000000000", "--trials", "1"],
        ["simulate", "--n", str((1 << 24) + 1), "--trials", "2", "--threads", "2"],
        ["cylsum", "--n", "10000000000000", "--s", "0.75", "--theta", "0.5"],
        ["construct", "sublinear", "--t", "0.5", "--n", "10000000000"],
        ["construct", "sublinear", "--t", "0.5", "--n", str((1 << 22) + 1)],
        ["weights", "--solve-s", str((1 << 20) + 1), "--k-max", "0"],
        ["weights", "--k-max", str((1 << 20) + 1)],
        ["weights", "--potter", "0.1", "--scan-limit", str((1 << 20) + 1)],
    ], ids=["simulate", "simulate-cap", "cylsum", "sublinear", "sublinear-cap", "solve-s-cap",
            "k-max-cap", "scan-limit-cap"])
    def test_oversized_word_is_3(self, capsys, argv):
        # refused before any digit is drawn, so no memory is committed first
        start = time.perf_counter()
        code = cli.main(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "exceeds the limit" in capsys.readouterr().err

    def test_linear_scan_past_limit_is_3(self, capsys, monkeypatch):
        # construct linear's default k1 comes from a ratio scan over 10,000 weights
        monkeypatch.setattr(weights, "_MAX_THRESHOLD", 9999)
        assert cli.main(["construct", "linear", "--theta", "0.5", "--depth", "3"]) == 3
        assert capsys.readouterr().err == "error: scan limit 10000 exceeds the limit of 9999\n"

    @pytest.mark.parametrize("module, name, argv", [
        (occupancy, "_MAX_DRAWS", ["simulate", "--trials", "2", "--n"]),
        (tilt, "_MAX_DRAWS", ["cylsum", "--s", "1", "--theta", "0.5", "--trials", "20", "--n"]),
        (sublinear, "_MAX_WORD_LENGTH", ["construct", "sublinear", "--t", "0.5", "--n"]),
        (weights, "_MAX_THRESHOLD", ["weights", "--k-max"]),
        (weights, "_MAX_THRESHOLD", ["weights", "--potter", "0.1", "--scan-limit"]),
    ], ids=["simulate", "cylsum", "sublinear", "k-max", "scan-limit"])
    def test_word_limit_is_inclusive(self, tmp_path, capsys, monkeypatch, module, name, argv):
        # the sublinear horizon is max(--n, 1024), so the limit sits above that
        monkeypatch.setattr(module, name, 2000)
        assert run_cli(tmp_path, argv + ["2000"])[0] == 0
        assert run_cli(tmp_path, argv + ["2001"])[0] == 3
        assert "exceeds the limit of 2000" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--n", "3000", "--trials", "10"],
        ["--n", "1500", "--mode", "exact", "--cap", "1"],
    ], ids=["mc-overflow", "exact-underflow"])
    def test_cylsum_zeta_power_is_3(self, capsys, flags):
        # Z(0.75)**3000 overflows and (p_1**0.75)**1500 underflows; both are
        # refused before any table, DP or draw
        start = time.perf_counter()
        code = cli.main(["cylsum", "--s", "0.75", "--theta", "0.5", *flags])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "error: Z(s)**n is not a normal float" in capsys.readouterr().err

    def test_cylsum_every_length_read_before_any_draw(self, capsys, monkeypatch):
        # n = 40 is valid, but its words are not drawn before n = 3000 is refused
        def invert(*args):
            raise AssertionError("digits were drawn before every length was read")

        monkeypatch.setattr(weights.DigitSampler, "invert", invert)
        code = cli.main(["cylsum", "--n", "40,3000", "--s", "0.75", "--theta", "0.5",
                         "--trials", "10"])
        assert code == 3
        assert "error: Z(s)**n is not a normal float" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, longest", [
        (["--trials", "10"], "1016"),
        (["--mode", "exact", "--cap", "1"], "1006"),
    ], ids=["mc", "exact"])
    def test_cylsum_zeta_power_limit(self, tmp_path, capsys, flags, longest):
        # for luroth, Z(0.75)**n is a normal float up to n = 1016; exact mode
        # also needs a finite truncation deficit, which ends at n = 1006
        argv = ["cylsum", "--s", "0.75", "--theta", "0.5", *flags, "--n"]
        assert run_cli(tmp_path, argv + [longest])[0] == 0
        assert run_cli(tmp_path, argv + ["1017"])[0] == 3
        assert "n = 1017" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--n", "1", "--cap", "1000000000"],
        ["--n", "1000", "--cap", "100000"],
    ], ids=["cap", "work"])
    def test_oversized_exact_cylsum_is_3(self, capsys, flags):
        # refused by the size guard before the weight table or the DP
        start = time.perf_counter()
        code = cli.main(["cylsum", "--s", "1", "--theta", "0.5", "--mode", "exact", *flags])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "exceeds its size limit" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1007", "1016"])
    def test_cylsum_infinite_deficit_is_3(self, capsys, n):
        # n * tail * Z**(n-1) overflows although Z**n is a normal float;
        # refused before the DP instead of reporting an inf deficit
        code = cli.main([
            "cylsum", "--n", n, "--s", "0.75", "--theta", "0.5", "--mode", "exact", "--cap", "1",
        ])
        assert code == 3
        assert "error: truncation deficit" in capsys.readouterr().err

    def test_isolated_draws_past_2_62_run(self, capsys):
        # at rho*s = 1.05 some draws lie past 2**62; each is alone in its word,
        # so it is labelled without being located, and the command runs
        code = cli.main(
            ["cylsum", "--n", "40", "--s", "0.525", "--theta", "0.5", "--trials", "2000"]
        )
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_clustered_draws_past_2_62_are_3(self, capsys):
        # power-log(1.05, 2) puts most draws past 2**62; two of them lie so close
        # that only their digits can tell them apart, and those are out of reach
        code = cli.main([
            "cylsum", "--model", "power-log", "--rho", "1.05", "--gamma", "2", "--s", "1",
            "--n", "40", "--theta", "0.5", "--trials", "1000",
        ])
        assert code == 3
        assert "error: tail inversion ran past 2**62" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["weights"],
        ["construct", "linear", "--theta", "0.5", "--depth", "3"],
        ["construct", "sublinear", "--t", "0.5", "--n", "100"],
        ["cylsum", "--n", "4", "--s", "0.75", "--theta", "0.5"],
    ], ids=["weights", "linear", "sublinear", "cylsum"])
    def test_threads_only_where_read(self, capsys, argv):
        # simulate and verify read --threads; the other subcommands reject it
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_seed_only_where_read(self, capsys):
        # weights draws nothing, so it has no --seed to accept
        with pytest.raises(SystemExit) as exc:
            cli.main(["weights", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma, code", [("-0.5", 0), ("-0.9", 0), ("-1.5", 3), ("-1", 3)])
    def test_power_log_below_range_is_3(self, capsys, gamma, code):
        # gamma in (-1, -0.5] is a valid model whose exact expectation takes a
        # tilted tail at s = 2 with log exponent 2 gamma <= -1; gamma <= -1 is not
        got = cli.main([
            "simulate", "--model", "power-log", "--rho", "2", "--gamma", gamma,
            "--n", "1000", "--trials", "3", "--out", os.devnull,
        ])
        assert got == code
        assert ("above -1" in capsys.readouterr().err) == (code == 3)

    def test_power_log_tail_past_continued_fraction_is_3(self, capsys):
        code = cli.main([
            "weights", "--model", "power-log", "--rho", "1.01", "--gamma", "-0.99",
            "--tilted-tail", "5", "1.02",
        ])
        assert code == 3
        assert "got -1.0098" in capsys.readouterr().err

    def test_power_log_weights_below_range_is_3(self, capsys):
        code = cli.main(["weights", "--model", "power-log", "--rho", "2", "--gamma", "-1.5"])
        assert code == 3
        assert "above -1" in capsys.readouterr().err

    def test_power_with_gamma_is_3(self, capsys):
        code = cli.main(["weights", "--model", "power", "--rho", "3", "--gamma", "1.5"])
        assert code == 3
        assert "use power-log" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, model", [
        (["weights", "--model", "luroth", "--rho", "3"], None),
        (["weights", "--model", "explicit-prefix", "--rho", "2.5", "--prefix", "0.3",
          "--gamma", "1.5"], None),
        (["weights", "--model", "power", "--rho", "3", "--prefix", "0.2"], None),
        (["weights", "--model", "explicit-prefix", "--rho", "2.5", "--prefix", "nan,0.2"], None),
        (["simulate", "--n", "1000", "--trials", "2", "--model", "explicit-prefix",
          "--rho", "2.5", "--prefix", "nan,0.2"], None),
        (["weights"], {"kind": "explicit-prefix", "rho": 2.5, "prefix": ["a"]}),
        (["weights"], {"kind": "explicit-prefix", "rho": 2.5, "prefix": [None]}),
        (["weights"], {"kind": "power-log", "rho": 2, "gamma": 1e400}),
    ], ids=["luroth-rho", "prefix-gamma", "power-prefix", "nan-prefix", "nan-prefix-simulate",
            "config-text-prefix", "config-null-prefix", "config-inf-gamma"])
    def test_invalid_model_is_3(self, tmp_path, argv, model):
        # A subprocess with a deadline: a NaN prefix once made simulate loop
        # forever, and an infinite gamma made the tail sum hang.
        if model is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"model": model}), encoding="utf-8")
            argv = argv + ["--config", str(cfg)]
        out = subprocess.run(
            [sys.executable, "-m", "ifsdigits.cli", *argv],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=5,
        )
        assert out.returncode == 3
        assert out.stderr.startswith("error:")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("argv", [
        ["construct", "linear", "--theta", "0.5", "--depth", "4", "--model", "power", "--rho", "400"],
        ["weights", "--model", "power", "--rho", "400", "--potter", "0.1"],
    ], ids=["linear", "weights"])
    def test_underflowing_potter_scan_is_3(self, argv):
        # p_7 of power(400) underflows to 0, where the Potter scan's dyadic
        # span would be NaN; the run ends before any traceback
        out = subprocess.run(
            [sys.executable, "-m", "ifsdigits.cli", *argv],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=5,
        )
        assert out.returncode == 3
        assert out.stderr.startswith("error: weight p_7 underflows to 0")
        assert "Traceback" not in out.stderr

    def test_non_finite_profile_is_3(self, capsys):
        code = cli.main([
            "construct", "sublinear", "--t", "0.5", "--n", "100",
            "--profile", "power", "--beta", "0.5", "--c", "1e308",
        ])
        assert code == 3
        assert "not finite" in capsys.readouterr().err

    def test_suite_failure_is_4(self, tmp_path, monkeypatch):
        def fail(seed, threads):
            raise verify.CheckFailure("injected failure")

        monkeypatch.setattr(verify, "CHECKS", verify.CHECKS + (("fail-inject", fail, "quick", None),))
        code, text = run_cli(tmp_path, ["verify", "quick", "--threads", "4", "--format", "json"])
        assert code == 4
        assert_canonical_json(text)
        report = json.loads(text)
        assert report["passed"] is False
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["fail-inject"]
        assert all(c["passed"] for c in report["checks"] if c["name"] != "fail-inject")

    @pytest.mark.parametrize("argv, config_seed", [
        (["simulate", "--n", "10", "--trials", "2", "--seed", "-1"], None),
        (["construct", "linear", "--theta", "0.5", "--depth", "3", "--seed", "-1"], None),
        (["cylsum", "--n", "4", "--s", "0.75", "--theta", "0.5", "--trials", "10", "--seed", "-1"],
         None),
        (["simulate", "--n", "10", "--trials", "2"], -5),
        (["verify", "quick", "--seed", "-1"], None),
    ], ids=["simulate", "linear", "cylsum", "config", "verify"])
    def test_negative_seed_is_3(self, tmp_path, capsys, argv, config_seed):
        if config_seed is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": config_seed}), encoding="utf-8")
            argv = argv + ["--config", str(cfg)]
        code, text = run_cli(tmp_path, argv)
        assert code == 3
        assert text == ""
        noun = "seed" if config_seed is None else "config field 'seed'"
        assert f"{noun} must be a non-negative integer, got -" in capsys.readouterr().err

    @pytest.mark.parametrize("config_seed", [1.7, True, 5.0, "5"])
    def test_non_integer_config_seed_is_3(self, tmp_path, capsys, config_seed):
        # int() once ran 1.7 and true as seed 1 and exited 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": config_seed}), encoding="utf-8")
        code, text = run_cli(tmp_path, ["simulate", "--n", "10", "--trials", "2",
                                        "--config", str(cfg)])
        assert code == 3
        assert text == ""
        assert "config field 'seed' is not an integer" in capsys.readouterr().err

    def test_closed_output_pipe_is_141(self):
        # the reader takes one line and closes the pipe while the CSV is still being written
        proc = subprocess.Popen(
            [sys.executable, "-m", "ifsdigits.cli", "construct", "sublinear", "--t", "0.5",
             "--n", "100000", "--profile", "log"],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"# seed=")
        proc.stdout.close()
        try:
            assert proc.wait(timeout=30) == 141
        finally:
            proc.kill()
        assert proc.stderr.read() == b""
        proc.stderr.close()


class TestReproducibility:
    def test_simulate_bytes_stable_across_threads(self, tmp_path):
        base = [
            "simulate", "--n", "200", "--trials", "300",
            "--checkpoints", "10,100,200",
        ]
        _, one = run_cli(tmp_path, base + ["--threads", "1"], "a.csv")
        _, two = run_cli(tmp_path, base + ["--threads", "4"], "b.csv")
        _, three = run_cli(tmp_path, base + ["--threads", "1"], "c.csv")
        assert one == two == three

    def test_table_sampler_bytes_stable_across_threads(self, tmp_path):
        # power(1.5) draws through the sampler table, whose lookup scratch each
        # of the two threads keeps for itself; each trial spans two blocks
        base = ["simulate", "--model", "power", "--rho", "1.5", "--n", "70000", "--trials", "4",
                "--checkpoints", "1000,70000"]
        _, one = run_cli(tmp_path, base + ["--threads", "1"], "a.csv")
        _, two = run_cli(tmp_path, base + ["--threads", "2"], "b.csv")
        assert one == two and one.count("\n") == 4

    def test_default_seed_in_header(self, tmp_path):
        _, text = run_cli(tmp_path, ["simulate", "--n", "50", "--trials", "20"])
        assert text.startswith(f"# seed={DEFAULT_SEED} ")
        assert DEFAULT_SEED == 0xD1617

    def test_seed_flag_changes_output(self, tmp_path):
        base = ["simulate", "--n", "100", "--trials", "100"]
        _, a = run_cli(tmp_path, base + ["--seed", "0x11"], "a.csv")
        _, b = run_cli(tmp_path, base + ["--seed", "17"], "b.csv")
        _, c = run_cli(tmp_path, base + ["--seed", "18"], "c.csv")
        assert a.startswith("# seed=17 ")
        assert a == b  # hex and decimal spell the same stream
        assert a != c

    def test_construct_outputs_stable(self, tmp_path):
        linear_args = ["construct", "linear", "--theta", "0.5", "--depth", "6"]
        _, a = run_cli(tmp_path, linear_args, "a.csv")
        _, b = run_cli(tmp_path, linear_args, "b.csv")
        assert a == b
        sub_args = ["construct", "sublinear", "--t", "0.5", "--n", "300"]
        _, c = run_cli(tmp_path, sub_args, "c.csv")
        _, d = run_cli(tmp_path, sub_args, "d.csv")
        assert c == d


class TestSimulate:
    def test_single_step_law_is_deterministic(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            ["simulate", "--n", "1", "--trials", "64", "--checkpoints", "1"],
        )
        assert code == 0
        header, columns, row = text.strip().split("\n")
        assert columns == "n,checkpoint,mean,sd,exact_expectation,karlin_constant"
        fields = row.split(",")
        assert fields[:2] == ["1", "1"]
        assert float(fields[2]) == 1.0  # one draw always shows one distinct digit
        assert float(fields[3]) == 0.0
        assert float(fields[4]) == 1.0

    def test_json_round_trip(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            [
                "simulate", "--n", "64", "--trials", "200",
                "--format", "json", "--seed", "5",
            ],
        )
        assert code == 0
        assert_canonical_json(text)
        obj = json.loads(text)
        assert obj["seed"] == 5
        assert obj["n"] == 64 and obj["trials"] == 200
        assert obj["checkpoints"][-1] == 64
        assert len(obj["means"]) == len(obj["checkpoints"])
        assert obj["rho"] == pytest.approx(2.0)
        assert obj["karlin_constant"] == pytest.approx(math.sqrt(math.pi), rel=1e-10)
        # reported means are law ratios D_c / sqrt(c); rescale to compare
        for c, mean, sd, exact in zip(
            obj["checkpoints"], obj["means"], obj["sds"], obj["exact_expectations"]
        ):
            se = sd / math.sqrt(obj["trials"])
            assert abs(mean - exact / math.sqrt(c)) < 4.5 * se + 1e-9


class TestWeightsCommand:
    def test_csv_quantities(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            [
                "weights", "--k-max", "2", "--tail", "10",
                "--tilted-tail", "100", "0.75", "--solve-s", "2",
            ],
        )
        assert code == 0
        rows = {}
        for line in text.strip().split("\n")[2:]:
            q, k, v = line.rsplit(",", 2)
            rows[(q, int(k))] = float(v)
        assert rows[("p", 1)] == pytest.approx(0.5)
        assert rows[("p", 2)] == pytest.approx(1.0 / 6.0)
        assert rows[("cum", 2)] == pytest.approx(2.0 / 3.0)
        assert rows[("tail", 10)] == pytest.approx(0.1, rel=1e-12)
        assert rows[("tilted_tail(s=0.75)", 100)] == pytest.approx(
            TILTED_TAIL_100_075, rel=1e-9
        )
        assert rows[("s", 2)] == pytest.approx(0.6009668516136755, abs=1e-10)

    def test_potter_rows(self, tmp_path):
        code, text = run_cli(
            tmp_path, ["weights", "--k-max", "0", "--potter", "0.1"]
        )
        assert code == 0
        body = text.strip().split("\n")[2:]
        quantities = [line.split(",")[0] for line in body]
        assert quantities == ["potter_k_eps(eps=0.1)", "potter_C_eps(eps=0.1)"]
        assert float(body[0].rsplit(",", 1)[1]) == 1.0  # exact quadratic tail

    def test_power_model_flag(self, tmp_path):
        code, text = run_cli(
            tmp_path, ["weights", "--model", "power", "--rho", "3", "--k-max", "1"]
        )
        assert code == 0
        zeta3 = 1.2020569031595943
        first_p = float(text.strip().split("\n")[2].rsplit(",", 1)[1])
        assert first_p == pytest.approx(1.0 / zeta3, rel=1e-12)

    @pytest.mark.parametrize("argv, digest", [
        (["--model", "power", "--rho", "1.5"],
         "3916daabf509d94c60868b339fed65f8a6df22d78e94f8c9aae5fce8f36564be"),
        (["--model", "power-log", "--rho", "2", "--gamma", "1.5"],
         "235ee2e62c471e8693b407f88fe90fabed4a2ea73d5f949b2655d89d0361335d"),
        (["--model", "explicit-prefix", "--rho", "2.5", "--prefix", "0.05,0.4"],
         "28756899cd1835e0a1998ab13b868da274d99eeb732c9ba7bdf73f951bcbab16"),
    ], ids=["power", "power-log", "explicit-prefix"])
    def test_table_golden(self, tmp_path, argv, digest):
        # p and cum are the weights the samplers read, from numpy's pow and log;
        # Python's scalar pow and log once wrote them up to 5 ulp apart.  The
        # digests were recorded with numpy 2.4.6 dispatching AVX-512, whose float64
        # pow and log differ in the last bit from other builds' on some inputs.
        x = np.arange(1.0, 8194.0)
        build = hashlib.sha256(b"".join(np.power(x, -q).tobytes() for q in (1.5, 2.0, 2.5)))
        build.update(np.power(np.log(x + 1.0), 1.5).tobytes())
        if build.hexdigest() != NUMPY_POW_LOG_DIGEST:
            pytest.skip("numpy's float64 pow and log differ from the recording build")
        code, text = run_cli(tmp_path, ["weights", "--k-max", "1000"] + argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_table_is_the_sampled_weights(self, tmp_path):
        m = weights.power_log_model(2.0, 1.5)
        code, text = run_cli(tmp_path, ["weights", "--k-max", "3000", "--model", "power-log",
                                        "--rho", "2", "--gamma", "1.5", "--format", "json"])
        assert code == 0
        rows = json.loads(text)["rows"]
        p = weights.weights_range(m, 1, 3001)
        assert [r["value"] for r in rows[0::2]] == p.tolist()
        assert [r["value"] for r in rows[1::2]] == np.cumsum(p).tolist()
        assert [r["quantity"] for r in rows[:4]] == ["p", "cum", "p", "cum"]
        assert [r["k"] for r in rows[:4]] == [1, 1, 2, 2]

    def test_header_replays_its_model(self, tmp_path):
        # :g wrote model=power(rho=1), a header that no longer named the run's rho
        code, text = run_cli(tmp_path, ["weights", "--model", "power", "--rho", "1.0000001"])
        assert code == 0
        assert text.startswith("# model=power(rho=1.0000001)\n")


class TestConfig:
    def test_config_supplies_model_and_seed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"model": {"kind": "power", "rho": 3.0}, "seed": 42}),
            encoding="utf-8",
        )
        code, text = run_cli(
            tmp_path,
            ["simulate", "--n", "20", "--trials", "10", "--config", str(cfg)],
        )
        assert code == 0
        assert text.startswith("# seed=42 ")
        assert "power" in text.split("\n")[0]

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"model": {"kind": "power", "rho": 3.0}, "seed": 42}),
            encoding="utf-8",
        )
        code, text = run_cli(
            tmp_path,
            [
                "simulate", "--n", "20", "--trials", "10",
                "--config", str(cfg), "--seed", "7", "--model", "luroth",
            ],
        )
        assert code == 0
        assert text.startswith("# seed=7 ")
        assert "luroth" in text.split("\n")[0]


class TestConstructOutputs:
    def test_linear_word_file(self, tmp_path):
        word_path = tmp_path / "word.txt"
        code, text = run_cli(
            tmp_path,
            [
                "construct", "linear", "--theta", "0.5", "--depth", "6",
                "--word-out", str(word_path),
            ],
        )
        assert code == 0
        word = codec.word_from_line(word_path.read_text(encoding="utf-8"))
        from ifsdigits import linear as linear_mod

        assert linear_mod.sandwich_violations(0.5, np.asarray(word)) == []
        # trace rows carry the same word length
        rows = text.strip().split("\n")[2:]
        assert len(rows) == len(word)

    def test_linear_csv_columns(self, tmp_path):
        code, text = run_cli(
            tmp_path, ["construct", "linear", "--theta", "0.5", "--depth", "4"]
        )
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[1] == "n,distinct,target,upper,log_mass,log_diam,local_dim"
        last = lines[-1].split(",")
        n, distinct = int(last[0]), int(last[1])
        assert n == 2**5 - 2  # boundary of the fourth block
        assert distinct >= math.ceil(0.5 * n) - 1e-9
        dim = float(last[6])
        assert 0.0 < dim < 0.5

    def test_linear_steep_tail_is_finite(self, tmp_path):
        # p_1 of power(400) rounds to 1 and p_7 underflows to 0; the trace
        # still holds only finite log diameters and local dimensions
        code, text = run_cli(tmp_path, [
            "construct", "linear", "--theta", "0.5", "--depth", "4",
            "--model", "power", "--rho", "400", "--k1", "1",
        ])
        assert code == 0
        rows = np.array([line.split(",") for line in text.strip().split("\n")[2:]], dtype=float)
        assert rows.shape == (2**5 - 2, 7)
        assert np.all(np.isfinite(rows))
        assert np.all(rows[:, 5] < 0.0)  # every cylinder is shorter than [0, 1)

    def test_sublinear_word_file_satisfies_schedule(self, tmp_path):
        word_path = tmp_path / "word.txt"
        code, text = run_cli(
            tmp_path,
            [
                "construct", "sublinear", "--t", "0.5", "--n", "200",
                "--word-out", str(word_path), "--seed", "9",
            ],
        )
        assert code == 0
        word = np.asarray(codec.word_from_line(word_path.read_text(encoding="utf-8")))
        assert word.size == 200
        # rebuild the schedule the way the command does and re-validate
        profile = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 1024})
        sched = sublinear.build_sublinear_schedule(
            weights.luroth_model(), profile, 0.5
        )
        assert sched.sandwich_violations(word) == []
        sched.ratio_trace(word)  # raises NotInSupportError off the support

    @pytest.mark.parametrize("argv", [
        ["construct", "linear", "--theta", "0.5", "--depth", "12"],
        ["construct", "sublinear", "--t", "0.5", "--n", "20000"],
    ], ids=["linear", "sublinear"])
    def test_word_file_is_the_json_word(self, tmp_path, argv):
        # both words are longer than one chunk of the streamed word file
        word_path = tmp_path / "word.txt"
        code, text = run_cli(tmp_path, argv + ["--format", "json", "--word-out", str(word_path)])
        assert code == 0
        word = json.loads(text)["word"]
        assert len(word) > 2 * codec.CSV_CHUNK_ROWS
        assert word_path.read_text(encoding="utf-8") == ",".join(map(str, word)) + "\n"

    def test_sublinear_word_in_model_digits(self, tmp_path):
        # The weights 0.05, 0.4, then the tail sort as digits 2, 3, 4, 5, 1, 6, ...:
        # the word file and the JSON word hold model digits, not sorted labels.
        argv = ["construct", "sublinear", "--t", "0.5", "--n", "40", "--seed", "9",
                "--model", "explicit-prefix", "--rho", "2.5", "--prefix", "0.05,0.4"]
        word_path = tmp_path / "word.txt"
        code, text = run_cli(tmp_path, argv + ["--word-out", str(word_path)])
        assert code == 0
        assert "k_star=3" in text.splitlines()[0]  # searched on the sorted weights
        assert word_path.read_text(encoding="utf-8") == SUBLINEAR_EXPLICIT_PREFIX_WORD + "\n"
        code, text = run_cli(tmp_path, argv + ["--format", "json"], name="out.json")
        assert code == 0
        word = json.loads(text)["word"]
        assert codec.word_to_line(word) == SUBLINEAR_EXPLICIT_PREFIX_WORD
        assert json.loads(text)["distinct"] == occupancy.distinct_counts(word).tolist()

    def test_sublinear_csv_structure(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            ["construct", "sublinear", "--t", "0.5", "--n", "100", "--seed", "3"],
        )
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0].startswith("# seed=3 ")
        assert "k_star=3" in lines[0]
        assert lines[1] == "n,log_ratio,free_part,forced_part,f_n,K_n,D_n"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 100
        f_vals = [int(r[4]) for r in rows]
        d_vals = [int(r[6]) for r in rows]
        k_vals = [int(r[5]) for r in rows]
        assert f_vals == [math.isqrt(n) for n in range(1, 101)]
        assert all(f <= d <= f + k for f, d, k in zip(f_vals, d_vals, k_vals))

    def test_sublinear_csv_and_json_agree_cell_for_cell(self, tmp_path):
        # CSV cells are formatted once per run of equal cells; each float must
        # still be the repr of its JSON value and each int its str
        argv = ["construct", "sublinear", "--t", "0.5", "--n", "20000", "--seed", "1"]
        _, text = run_cli(tmp_path, argv + ["--format", "csv"], "out.csv")
        _, doc = run_cli(tmp_path, argv + ["--format", "json"], "out.json")
        rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
        obj = json.loads(doc)
        assert [r["n"] for r in rows] == [str(n) for n in range(1, 20001)]
        keys = {"log_ratio": "log_ratio", "free_part": "free_part", "forced_part": "forced_part",
                "f_n": "f", "K_n": "K", "D_n": "distinct"}
        for col, key in keys.items():
            for cell, value in zip([r[col] for r in rows], obj[key], strict=True):
                assert cell == (repr(value) if isinstance(value, float) else str(value)), (col, cell)

    def test_power_profile_flags(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            [
                "construct", "sublinear", "--t", "0.5", "--n", "50",
                "--profile", "power", "--beta", "0.4", "--c", "2.0",
            ],
        )
        assert code == 0
        assert "profile=builtin-power(0.4,2.0)" in text.split("\n")[0]

    def test_log_profile_flag(self, tmp_path):
        code, text = run_cli(
            tmp_path, ["construct", "sublinear", "--t", "0.5", "--n", "10000", "--profile", "log"]
        )
        assert code == 0
        lines = text.strip().split("\n")
        assert "profile=builtin-log" in lines[0]
        rows = [line.split(",") for line in lines[2:]]
        assert [int(r[4]) for r in rows] == [math.floor(math.log(n + 1.0)) for n in range(1, 10001)]
        assert all(int(r[4]) <= int(r[6]) <= int(r[4]) + int(r[5]) for r in rows)


class TestConstructMemory:
    def test_each_per_digit_array_held_once(self, tmp_path):
        # the word file is written last, on top of every array the traces return
        lin = linear.build_block_schedule(weights.luroth_model(), 0.5, depth=19, k1=1)
        lin_word = lin.sample_word(19, substream(0, 0x11EA, 19))
        profile = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 1 << 20})
        sub = sublinear.build_sublinear_schedule(weights.luroth_model(), profile, 0.5)
        sub_word = sub.sample_word(1 << 20, substream(0, 0x5B11, 1 << 20))
        tracemalloc.start()
        try:
            trace = linear.point_trace(lin, lin_word)
            ratios = vars(sub.ratio_trace(sub_word))
            codec.write_word(tmp_path / "word.txt", sub_word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(col.nbytes for col in (*trace.values(), *ratios.values()))
        assert returned == 8 * (7 * lin_word.size + 3 * sub_word.size)
        assert peak < CONSTRUCT_PEAK_RATIO * returned

    @pytest.mark.parametrize("argv, sizes, added, held", [
        # p and cum
        (["weights", "--k-max"], (32768, 65536), 32768, 16),
        # the word, 7 trace columns and float64 copies of the integer n and distinct
        (["construct", "linear", "--theta", "0.5", "--format", "json", "--depth"], (14, 15),
         1 << 15, 80),
    ], ids=["weights-csv", "linear-json"])
    def test_output_holds_no_object_per_digit(self, argv, sizes, added, held):
        # the peak at the larger size less the one at the smaller: the cost of
        # the added digits, without the fixed costs of import and batching, and
        # without the caches that the first run fills
        assert cli.main([*argv, str(sizes[0]), "--out", os.devnull]) == 0
        peaks = []
        for size in sizes:
            tracemalloc.start()
            try:
                assert cli.main([*argv, str(size), "--out", os.devnull]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < (held + PER_DIGIT_SLACK) * added


class TestCylsum:
    def test_exact_csv(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            [
                "cylsum", "--n", "3,4", "--s", "0.75", "--theta", "0.5",
                "--mode", "exact", "--cap", "4",
            ],
        )
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[1] == "n,s,theta,mode,value,stderr,truncation_deficit,binomial_bound"
        assert len(lines) == 4
        for line in lines[2:]:
            parts = line.split(",")
            assert parts[3] == "exact-enumeration"
            assert float(parts[4]) > 0.0
            assert float(parts[6]) > 0.0  # capped alphabet leaves a deficit

    def test_exact_long_words(self, tmp_path):
        start = time.perf_counter()
        code, text = run_cli(tmp_path, [
            "cylsum", "--n", "40,80,160", "--s", "0.75", "--theta", "0.5",
            "--mode", "exact", "--cap", "64", "--format", "json",
        ])
        assert time.perf_counter() - start < 2.0
        assert code == 0
        probs = [r["prob"] for r in json.loads(text)["records"]]
        assert 1.0 > probs[0] > probs[1] > probs[2] > 0.0

    def test_mc_rows_as_if_run_alone(self, tmp_path):
        # every length reads the same stream, so each row is its own run's row
        argv = ["cylsum", "--s", "0.75", "--theta", "0.5", "--trials", "2000", "--n"]
        code, text = run_cli(tmp_path, argv + ["40,80,160"])
        assert code == 0
        alone = [run_cli(tmp_path, argv + [n])[1].splitlines() for n in ("40", "80", "160")]
        assert text.splitlines()[2:] == [lines[2] for lines in alone]
        assert all(len(lines) == 3 for lines in alone)

    def test_mc_json_fields(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            [
                "cylsum", "--n", "8", "--s", "0.75", "--theta", "0.5",
                "--trials", "2000", "--seed", "21", "--format", "json",
            ],
        )
        assert code == 0
        assert_canonical_json(text)
        obj = json.loads(text)
        assert obj["seed"] == 21
        (rec,) = obj["records"]
        assert rec["mode"] == "monte-carlo"
        assert rec["stderr"] >= 0.0
        assert 0.0 <= rec["prob"] <= 1.0
        assert rec["log_sum_bound"] == pytest.approx(
            8 * rec["log_zeta"] + rec["log_binomial_bound"], rel=1e-12
        )


JSON_COMMANDS = {
    "weights": ["weights", "--k-max", "3", "--tail", "10", "--potter", "0.1"],
    "simulate": ["simulate", "--n", "64", "--trials", "20"],
    "linear": ["construct", "linear", "--theta", "0.5", "--depth", "12"],
    "sublinear": ["construct", "sublinear", "--t", "0.5", "--n", "300"],
    "cylsum": ["cylsum", "--n", "3,4", "--s", "0.75", "--theta", "0.5", "--mode", "exact"],
}


# the weights flags that ask for every extra row kind, as weights_object builds them
WEIGHTS_EXTRA_ROWS = ["--solve-s", "2", "--tail", "10", "--tilted-tail", "100", "0.75",
                      "--potter", "0.1"]


def weights_object(model, k_max, extra):
    """The ``weights --format json`` object, built whole from the library."""
    p = weights.weights_range(model, 1, k_max + 1)
    rows = [{"quantity": q, "k": k, "value": v}
            for k, pk, ck in zip(range(1, k_max + 1), p.tolist(), np.cumsum(p).tolist())
            for q, v in (("p", pk), ("cum", ck))]
    if extra:
        rep = weights.potter_scan(model, 0.1, 10_000)
        rows += [{"quantity": "s", "k": 2, "value": weights.partial_sum_exponent(model, 2)},
                 {"quantity": "tail", "k": 10, "value": weights.tail_sum(model, 10)},
                 {"quantity": "tilted_tail(s=0.75)", "k": 100,
                  "value": weights.tilted_tail_sum(model, 100, 0.75)},
                 {"quantity": "potter_k_eps(eps=0.1)", "k": rep.scan_limit, "value": float(rep.k_eps)},
                 {"quantity": "potter_C_eps(eps=0.1)", "k": rep.scan_limit, "value": rep.C_eps}]
    return {"model": model.describe(), "rows": rows}


def weights_csv(model, k_max, extra):
    """The ``weights`` CSV, one ``codec.csv_chunks`` table of every row of the whole object."""
    obj = weights_object(model, k_max, extra)
    table = {name: [row[name] for row in obj["rows"]] for name in ("quantity", "k", "value")}
    return f"# model={obj['model']}\n" + "".join(codec.csv_chunks(table))


def construct_object(name, model):
    """The ``construct linear|sublinear --format json`` object at the default seed,
    built whole from the library with ``.tolist()``."""
    if name == "linear":
        sched = linear.build_block_schedule(model, 0.5, 12)
        word = sched.sample_word(12, substream(DEFAULT_SEED, 0x11EA, 12))
        trace = linear.point_trace(sched, word)
        return {"seed": DEFAULT_SEED, "theta": 0.5, "depth": 12, "k1": sched.k1,
                "word": word.tolist(),
                "trace": {key: col.astype(np.float64).tolist() for key, col in trace.items()}}
    profile = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 1024})
    sched = sublinear.build_sublinear_schedule(model, profile, 0.5)
    word = sched.sample_word(300, substream(DEFAULT_SEED, 0x5B11, 300))
    trace = sched.ratio_trace(word)
    return {"seed": DEFAULT_SEED, "t": 0.5, "k_star": sched.k_star,
            "profile": profile.provenance,
            "word": sched.to_model_digits(word).tolist(),
            "log_ratio": trace.log_ratio.tolist(), "free_part": trace.free_part.tolist(),
            "forced_part": trace.forced_part.tolist(), "f": profile.values[1:301].tolist(),
            "K": sched.K[:300].tolist(), "distinct": occupancy.distinct_counts(word).tolist()}


WEIGHT_MODELS = pytest.mark.parametrize("flags, model", [
    ([], weights.luroth_model()),
    (["--model", "power-log", "--rho", "2", "--gamma", "1.5"], weights.power_log_model(2.0, 1.5)),
], ids=["luroth", "power-log"])


class TestJsonStreaming:
    @pytest.mark.parametrize("extra", [False, True], ids=["digits", "every-row-kind"])
    @pytest.mark.parametrize("k_max", [0, 1, 5, 3000])
    @WEIGHT_MODELS
    def test_weights_rows_are_the_whole_object(self, tmp_path, flags, model, k_max, extra):
        # the rows are written in chunks of 2048 digits from one template; the
        # bytes are those of json.dumps of the whole object, "rows": [] included
        argv = ["weights", "--k-max", str(k_max), *flags, "--format", "json"]
        if extra:
            argv += WEIGHTS_EXTRA_ROWS
        code, text = run_cli(tmp_path, argv)
        assert code == 0
        assert text == json.dumps(weights_object(model, k_max, extra), sort_keys=True, indent=2) + "\n"
        assert ('"rows": []' in text) == (k_max == 0 and not extra)

    @pytest.mark.parametrize("extra", [False, True], ids=["digits", "every-row-kind"])
    @pytest.mark.parametrize("k_max", [0, 1, 5, 3000])
    @WEIGHT_MODELS
    def test_weights_csv_is_the_whole_table(self, tmp_path, flags, model, k_max, extra):
        # the CSV digit rows come from the same chunked loop as the JSON ones
        argv = ["weights", "--k-max", str(k_max), *flags]
        if extra:
            argv += WEIGHTS_EXTRA_ROWS
        assert run_cli(tmp_path, argv) == (0, weights_csv(model, k_max, extra))

    @pytest.mark.parametrize("batch", [1, cli._JSON_BATCH])
    @pytest.mark.parametrize("flags, model", [
        ([], weights.luroth_model()),
        (["--model", "explicit-prefix", "--prefix", "0.05,0.4", "--rho", "2.5"],
         weights.explicit_prefix_model([0.05, 0.4], 2.5)),
    ], ids=["luroth", "explicit-prefix"])
    @pytest.mark.parametrize("name", ["linear", "sublinear"])
    def test_construct_json_is_the_whole_object(self, tmp_path, monkeypatch, name, flags, model,
                                                batch):
        # the arrays go to the encoder as they are, read a chunk at a time
        monkeypatch.setattr(cli, "_JSON_BATCH", batch)
        code, text = run_cli(tmp_path, JSON_COMMANDS[name] + flags + ["--format", "json"])
        assert code == 0
        assert text == json.dumps(construct_object(name, model), sort_keys=True, indent=2) + "\n"

    def test_record_json_keys(self, tmp_path, monkeypatch):
        # simulate and verify write their records' fields, two of them renamed
        code, text = run_cli(tmp_path, JSON_COMMANDS["simulate"] + ["--format", "json"])
        assert code == 0
        assert set(json.loads(text)) == {
            "model", "rho", "n", "trials", "seed", "checkpoints", "means", "sds",
            "exact_expectations", "karlin_constant", "mean_final_distinct"}
        monkeypatch.setattr(verify, "CHECKS", (("stub", lambda: "ok", "quick", None),))
        code, text = run_cli(tmp_path, ["verify", "quick", "--format", "json"])
        assert code == 0
        obj = json.loads(text)
        assert set(obj) == {"tier", "seed", "passed", "checks"}
        assert [set(check) for check in obj["checks"]] == [{"name", "passed", "seconds", "detail"}]

    @pytest.mark.parametrize("batch", [1, cli._JSON_BATCH])
    @pytest.mark.parametrize("name", sorted(JSON_COMMANDS))
    def test_streamed_json_is_canonical(self, tmp_path, monkeypatch, name, batch):
        monkeypatch.setattr(cli, "_JSON_BATCH", batch)
        code, text = run_cli(tmp_path, JSON_COMMANDS[name] + ["--format", "json"])
        assert code == 0
        assert_canonical_json(text)


NO_SCIPY_PROBE = """
import os, sys
import ifsdigits.cli as cli
models = [["--model", "power", "--rho", "3"],
          ["--model", "power-log", "--rho", "2", "--gamma", "1.5"],
          ["--model", "explicit-prefix", "--prefix", "0.1,0.3", "--rho", "2.5"]]
for m in models:
    for argv in (["weights", "--tail", "10", "--tilted-tail", "100", "0.9", "--potter", "0.1"],
                 ["simulate", "--n", "1000", "--trials", "5"],
                 ["cylsum", "--n", "8", "--s", "0.9", "--theta", "0.5", "--trials", "200"],
                 ["construct", "sublinear", "--t", "0.5", "--n", "200"]):
        assert cli.main(argv + m + ["--out", os.devnull]) == 0, argv + m
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


class TestRuntimeDependencies:
    def test_commands_import_no_scipy(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.splitlines()[-1] == "[]"


class TestOutputRouting:
    def test_stdout_by_default(self, capsys):
        code = cli.main(["weights", "--k-max", "2"])
        assert code == 0
        assert "quantity,k,value" in capsys.readouterr().out

    def test_out_file_leaves_stdout_clean(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        code = cli.main(["weights", "--k-max", "2", "--out", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert "quantity,k,value" in path.read_text(encoding="utf-8")


MODULES = ("", ".cli", ".codec", ".errors", ".linear", ".occupancy", ".rng", ".sublinear",
           ".tilt", ".verify", ".weights")


class TestPublicNames:
    @pytest.mark.parametrize("suffix", MODULES)
    def test_every_export_resolves(self, suffix):
        # a name left in __all__ after its definition is deleted fails here
        module = importlib.import_module("ifsdigits" + suffix)
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == []
        assert len(set(module.__all__)) == len(module.__all__)
