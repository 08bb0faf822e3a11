"""The check registry: which named checks each ``verify`` tier runs, in order, and how a row is run."""

import pytest

from ifsdigits import verify

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
