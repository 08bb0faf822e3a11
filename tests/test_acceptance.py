"""Acceptance gate: ten numbered criteria, one summary line each.

The criteria are the rows named ``A1``-``A10`` of :data:`ifsdigits.verify.CHECKS`,
the table that ``ifsdigits verify`` also runs; thresholds are part of each
row's check and runtime budgets part of the row.  Each test runs one row
through :func:`~ifsdigits.verify.run_check`, as ``verify`` does, appends a
single ``A# PASS/FAIL`` line to the shared summary (printed after the run),
and fails when the row fails.
"""

from conftest import ACCEPTANCE_LINES

from ifsdigits.rng import DEFAULT_SEED
from ifsdigits.verify import CHECKS, run_check

CRITERIA = {row[0]: row for row in CHECKS if row[0].startswith("A")}


def run_criterion(tag: str) -> None:
    result = run_check(CRITERIA[tag], DEFAULT_SEED, 4)
    ACCEPTANCE_LINES.append(f"{tag} {'PASS' if result.passed else 'FAIL'}: {result.detail}")
    assert result.passed, result.detail


def test_a1_luroth_occupancy_law():
    run_criterion("A1")


def test_a2_power_law_occupancy():
    run_criterion("A2")


def test_a3_linear_sandwich():
    run_criterion("A3")


def test_a4_block_count_formula():
    run_criterion("A4")


def test_a5_local_dimension_trend():
    run_criterion("A5")


def test_a6_change_of_measure_identity():
    run_criterion("A6")


def test_a7_tilted_tail_scaling():
    run_criterion("A7")


def test_a8_sublinear_sandwich_and_decay():
    run_criterion("A8")


def test_a9_combinatorial_lemma():
    run_criterion("A9")


def test_a10_exponent_solver():
    run_criterion("A10")
