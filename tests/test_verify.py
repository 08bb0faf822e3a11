"""The check registry: which named checks each ``verify`` tier runs, in order."""

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

    monkeypatch.setattr(verify, "_QUICK_CHECKS", [(name, stub) for name, _ in verify._QUICK_CHECKS])
    monkeypatch.setattr(verify, "ACCEPTANCE", {tag: stub for tag in verify.ACCEPTANCE})


@pytest.mark.parametrize("tier, names", [("quick", QUICK), ("full", FULL)])
def test_tier_check_names(stub_checks, tier, names):
    # a check removed from or reordered in the registry fails here
    report = verify.run_suite(tier)
    assert [r.name for r in report.results] == names
    assert len(names) == {"quick": 23, "full": 29}[tier]
