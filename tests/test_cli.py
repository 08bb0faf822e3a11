"""Command-line behavior: exit codes, reproducibility, wire formats."""

import importlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ifsdigits import cli, codec, occupancy, sublinear, tilt, weights
from ifsdigits.rng import DEFAULT_SEED

ROOT = Path(__file__).resolve().parents[1]

TILTED_TAIL_100_075 = 0.2000001249977

# construct sublinear --t 0.5 --n 40 --seed 9 on explicit-prefix(0.05, 0.4; rho 2.5)
SUBLINEAR_EXPLICIT_PREFIX_WORD = (
    "1,2,4,6,4,2,2,5,7,2,4,2,2,2,3,8,3,4,4,2,2,2,3,3,9,2,2,3,2,3,2,2,2,3,3,10,2,2,2,2"
)


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

    def test_validation_error_is_3(self, capsys):
        # divergent tilt exponent for the quadratic tail
        code = cli.main(
            ["cylsum", "--n", "4", "--s", "0.5", "--theta", "0.5", "--trials", "10"]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

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
    ], ids=["simulate", "simulate-cap", "cylsum", "sublinear", "sublinear-cap"])
    def test_oversized_word_is_3(self, capsys, argv):
        # refused before any digit is drawn, so no memory is committed first
        start = time.perf_counter()
        code = cli.main(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "exceeds the limit" in capsys.readouterr().err

    @pytest.mark.parametrize("module, name, argv", [
        (occupancy, "_MAX_DRAWS", ["simulate", "--trials", "2", "--n"]),
        (tilt, "_MAX_DRAWS", ["cylsum", "--s", "1", "--theta", "0.5", "--trials", "20", "--n"]),
        (sublinear, "_MAX_WORD_LENGTH", ["construct", "sublinear", "--t", "0.5", "--n"]),
    ], ids=["simulate", "cylsum", "sublinear"])
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

    def test_unreachable_tail_quantile_is_3(self, capsys):
        # at rho*s = 1.05 a draw can need a digit past 2**62
        code = cli.main(
            ["cylsum", "--n", "40", "--s", "0.525", "--theta", "0.5", "--trials", "2000"]
        )
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

    @pytest.mark.parametrize("gamma", ["-0.9", "-1.5", "-1"])
    def test_power_log_below_range_is_3(self, capsys, gamma):
        # gamma = -0.9 is a valid model, but the exact expectation takes a
        # tilted tail at s = 2, whose log exponent -1.8 is out of range
        code = cli.main([
            "simulate", "--model", "power-log", "--rho", "2", "--gamma", gamma,
            "--n", "1000", "--trials", "3",
        ])
        assert code == 3
        assert "above -1" in capsys.readouterr().err

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

    def test_suite_failure_is_4(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            ["verify", "quick", "--fail-inject", "--threads", "4", "--format", "json"],
        )
        assert code == 4
        assert_canonical_json(text)
        report = json.loads(text)
        assert report["passed"] is False
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["fail-inject"]
        assert all(c["passed"] for c in report["checks"] if c["name"] != "fail-inject")


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

    def test_sublinear_word_in_model_digits(self, tmp_path):
        # The weights 0.05, 0.4, then the tail sort as digits 2, 3, 4, 5, 1, 6, ...:
        # the word file and the JSON word hold model digits, not sorted labels.
        argv = ["construct", "sublinear", "--t", "0.5", "--n", "40", "--seed", "9",
                "--model", "explicit-prefix", "--rho", "2.5", "--prefix", "0.05,0.4"]
        word_path = tmp_path / "word.txt"
        code, text = run_cli(tmp_path, argv + ["--word-out", str(word_path)])
        assert code == 0
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


class TestJsonStreaming:
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
