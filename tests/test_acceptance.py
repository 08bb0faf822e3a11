"""Acceptance gate: ten numbered criteria, one summary line each.

The criteria live in :data:`ifsdigits.verify.ACCEPTANCE`, the registry that
``ifsdigits verify`` also runs; thresholds and runtime budgets are part of
each entry.  Each test runs one entry, appends a single ``A# PASS/FAIL``
line to the shared summary (printed after the run), and fails when the
entry raises :class:`~ifsdigits.verify.CheckFailure`.
"""

from conftest import ACCEPTANCE_LINES

from ifsdigits.rng import DEFAULT_SEED
from ifsdigits.verify import ACCEPTANCE, CheckFailure


def run_criterion(tag: str) -> None:
    try:
        detail = ACCEPTANCE[tag](DEFAULT_SEED, 4)
    except CheckFailure as exc:
        ACCEPTANCE_LINES.append(f"{tag} FAIL: {exc}")
        raise
    ACCEPTANCE_LINES.append(f"{tag} PASS: {detail}")


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
