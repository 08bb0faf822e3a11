"""The check registry: which named checks each ``verify`` tier runs, in order, and how a row is run."""

import ast
import inspect
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ifsdigits import cli, codec, linear, sublinear, verify
from ifsdigits.errors import DomainError

ROOT = Path(__file__).resolve().parents[1]

QUICK = [
    "weights-normalization",
    "weights-tilt-monotone",
    "weights-potter-scan",
    "weights-sampler-law",
    "occupancy-counter",
    "occupancy-expectation",
    "occupancy-law-small",
    "linear-uniformity",
    "linear-sandwich",
    "linear-mass-additivity",
    "linear-local-dimension",
    "sublinear-profiles",
    "sublinear-sandwich",
    "sublinear-ratio-decay",
    "tilt-change-of-measure",
    "tilt-monotonicity",
    "tilt-mc",
    "tilt-bound-chain",
    "rng-reproducibility",
    "A4",
    "A7",
    "A9",
    "A10",
]
FULL = QUICK + ["A1", "A2", "A3", "A5", "A6", "A8"]


@pytest.fixture
def stub_checks(monkeypatch):
    """Replace every check by a stub, so the tiers are listed without running them."""
    def stub(seed, threads):
        return "stub"

    monkeypatch.setattr(
        verify, "CHECKS", tuple((name, stub, tier, budget) for name, _, tier, budget in verify.CHECKS)
    )


@pytest.mark.parametrize("tier, names", [("quick", QUICK), ("full", FULL)])
def test_tier_check_names(stub_checks, tier, names):
    # a check removed from or reordered in the registry fails here
    report = verify.run_suite(tier)
    assert [r.name for r in report.results] == names
    assert len(names) == {"quick": 23, "full": 29}[tier]


def test_budgets():
    budgets = {name: budget for name, _, _, budget in verify.CHECKS if budget is not None}
    assert budgets == {"A1": 120, "A3": 60, "A4": 60, "A5": 60, "A8": 120}


def test_budget_is_reported():
    row = next(row for row in verify.CHECKS if row[0] == "A4")
    result = verify.run_check(row, 7, 1)
    assert result.passed
    assert result.detail.endswith(f"; {result.seconds:.1f}s (<60s)")


def test_row_over_its_budget_fails(stub_checks, monkeypatch):
    # a row that passes its check still fails over its budget
    rows = tuple((n, f, t, 0 if n == "A7" else b) for n, f, t, b in verify.CHECKS)
    monkeypatch.setattr(verify, "CHECKS", rows)
    report = verify.run_suite("quick", seed=7)
    assert not report.passed
    (failed,) = [r for r in report.results if not r.passed]
    assert failed.name == "A7"
    assert failed.detail == f"stub; {failed.seconds:.1f}s (<0s) [reproduce with seed=7]"


def test_check_failure_names_the_seed():
    def fail(seed, threads):
        raise verify.CheckFailure(f"broke at seed {seed}")

    result = verify.run_check(("fail", fail, "quick", None), 11, 1)
    assert not result.passed
    assert result.detail == "broke at seed 11 [reproduce with seed=11]"


def test_failure_without_seed_names_no_seed():
    # a row that does not read the seed fails the same way at every seed
    def fail():
        raise verify.CheckFailure("broke")

    result = verify.run_check(("fail", fail, "quick", None), 11, 1)
    assert not result.passed
    assert result.detail == "broke"


def test_checks_get_only_the_inputs_they_name():
    seen = []

    def check(threads):
        seen.append(threads)
        return "ok"

    assert verify.run_check(("t", check, "quick", None), 11, 3).detail == "ok"
    assert seen == [3]


def test_no_unread_parameters():
    # every parameter of every function in src/ifsdigits is read by its body
    unread = []
    for path in sorted((ROOT / "src" / "ifsdigits").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [
                f"{path.name}:{fn.lineno} {p}" for p in params if p not in read | {"self", "cls"}
            ]
    assert unread == []


# The quick rows that draw with the run seed.
SEED_ROWS = [
    "weights-sampler-law",
    "occupancy-law-small",
    "linear-uniformity",
    "linear-sandwich",
    "linear-mass-additivity",
    "linear-local-dimension",
    "sublinear-sandwich",
    "sublinear-ratio-decay",
    "tilt-mc",
    "rng-reproducibility",
]


def test_seed_rows_are_the_quick_rows_that_read_the_seed():
    reads = [name for name, fn, tier, _ in verify.CHECKS
             if tier == "quick" and "seed" in inspect.signature(fn).parameters]
    assert reads == SEED_ROWS


@pytest.mark.parametrize("name", SEED_ROWS)
def test_quick_rows_hold_at_seeds_0_to_19(name):
    # a failure that ends in [reproduce with seed=S] must belong to the code, not to the seed
    row = next(row for row in verify.CHECKS if row[0] == name)
    results = [verify.run_check(row, seed, 1) for seed in range(20)]
    assert [r.detail for r in results if not r.passed] == []


def test_sampler_law_states_its_false_alarm_rate():
    # ten two-sided 4-sd comparisons: at most 10 * 6.3e-5 by the union bound
    detail = verify.check_weights_sampler_law(5)
    assert "false-alarm rate at most about 6.3e-4: 10 two-sided comparisons" in detail


@pytest.mark.parametrize("threads", [0, -2, 1.0, True])
def test_run_suite_reads_threads_before_any_row(monkeypatch, threads):
    ran = []
    monkeypatch.setattr(verify, "CHECKS", (("spy", lambda: ran.append(1) or "", "quick", None),))
    with pytest.raises(DomainError, match="threads"):
        verify.run_suite("quick", threads=threads)
    assert ran == []


def test_quick_sandwich_words_are_the_cli_words(tmp_path, monkeypatch):
    # a failing word replays with `construct linear|sublinear ... --seed S`
    drawn = []
    monkeypatch.setattr(linear, "sandwich_violations", lambda theta, word: drawn.append(word) or [])
    verify._linear_sandwich(8, [5])
    assert cli.main(["construct", "linear", "--theta", "1", "--depth", "8", "--seed", "5",
                     "--word-out", str(tmp_path / "w"), "--out", str(tmp_path / "o")]) == 0
    np.testing.assert_array_equal(drawn[-1], codec.word_from_line((tmp_path / "w").read_text()))

    drawn.clear()
    monkeypatch.setattr(sublinear.SublinearSchedule, "sandwich_violations",
                        lambda self, word: drawn.append(word) or [])
    verify._sublinear_words(10_000, [7])
    assert cli.main(["construct", "sublinear", "--t", "0.9", "--n", "10000", "--seed", "7",
                     "--word-out", str(tmp_path / "w"), "--out", str(tmp_path / "o")]) == 0
    np.testing.assert_array_equal(drawn[-1], codec.word_from_line((tmp_path / "w").read_text()))


def test_a2_detail_names_the_closest_checkpoint(monkeypatch):
    report = SimpleNamespace(
        exact_expectations=[100.0], mean_final_distinct=100.0, karlin=1.0,
        means=[1.5, 1.02, 1.05], checkpoints=[10, 100, 1000],
    )
    monkeypatch.setattr(verify.occupancy, "monte_carlo_law", lambda *a, **k: report)
    result = verify.run_check(next(r for r in verify.CHECKS if r[0] == "A2"), 5, 1)
    assert not result.passed
    assert result.detail.endswith(
        "final-checkpoint gap 0.0500 is not the smallest of 3 checkpoints; the smallest "
        "is 0.0200 at n = 100 [reproduce with seed=5]"
    )
