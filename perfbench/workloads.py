"""The benchmark's workloads: the README commands they run and their checks.

Each workload maps a seed to a list of commands, one fresh process each,
and checks the bytes those commands wrote.  Sizes are fixed here so that
every seed does the same amount of work; only the program's ``--seed``
changes.  The reasons each workload was chosen are in ``BENCHMARK.json``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

OCCUPANCY_N = 1_000_000
OCCUPANCY_TRIALS = 20
CYLSUM_N = (40, 80, 160)
CYLSUM_S = 0.75
CYLSUM_TRIALS = 40_000
LINEAR_THETA = 0.5
LINEAR_DEPTH = 16
SUBLINEAR_T = 0.5
SUBLINEAR_N = 200_000


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    digits: int  # digits the command produces
    word_out: Path | None = None


def occupancy_law(seed: int, work: Path, threads: int = 1) -> list[Command]:
    argv = ("simulate", "--n", str(OCCUPANCY_N), "--trials", str(OCCUPANCY_TRIALS),
            "--threads", str(threads), "--seed", str(seed))
    return [Command("simulate", argv, OCCUPANCY_N * OCCUPANCY_TRIALS)]


def tilted_cylsum(seed: int, work: Path) -> list[Command]:
    argv = ("cylsum", "--n", ",".join(map(str, CYLSUM_N)), "--s", repr(CYLSUM_S),
            "--theta", "0.5", "--mode", "mc", "--trials", str(CYLSUM_TRIALS),
            "--seed", str(seed))
    return [Command("cylsum", argv, sum(CYLSUM_N) * CYLSUM_TRIALS)]


def constructions(seed: int, work: Path) -> list[Command]:
    linear_word = work / "linear-word.txt"
    sublinear_word = work / "sublinear-word.txt"
    return [
        Command("linear",
                ("construct", "linear", "--theta", repr(LINEAR_THETA),
                 "--depth", str(LINEAR_DEPTH), "--word-out", str(linear_word),
                 "--seed", str(seed)),
                (1 << (LINEAR_DEPTH + 1)) - 2, linear_word),
        Command("sublinear",
                ("construct", "sublinear", "--t", repr(SUBLINEAR_T), "--profile", "sqrt",
                 "--n", str(SUBLINEAR_N), "--word-out", str(sublinear_word),
                 "--seed", str(seed)),
                SUBLINEAR_N, sublinear_word),
    ]


WORKLOADS = {
    "occupancy-law": occupancy_law,
    "tilted-cylsum": tilted_cylsum,
    "constructions": constructions,
}


# -- correctness checks --------------------------------------------------------
#
# Each check takes the command, its standard output and its word file (or
# None), and returns a list of failure messages.  They run after the timed
# region, once per command, on the output of its first repetition.


def _csv_rows(text: str) -> list[dict]:
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def check_simulate(ifs, cmd: Command, out: str, _word) -> list[str]:
    """Last checkpoint: the mean of D_n/sqrt(n) lies within 4 standard errors
    of exact_expectation/sqrt(n)."""
    row = _csv_rows(out)[-1]
    n = int(row["checkpoint"])
    mean, sd = float(row["mean"]), float(row["sd"])
    target = float(row["exact_expectation"]) / math.sqrt(n)
    se = sd / math.sqrt(OCCUPANCY_TRIALS)
    if n != OCCUPANCY_N or not abs(mean - target) <= 4.0 * se:
        return [f"simulate: mean {mean!r} at n={n} is not within 4 se ({se!r}) of {target!r}"]
    return []


def check_cylsum(ifs, cmd: Command, out: str, _word) -> list[str]:
    """One row per n; value / Z(s)**n is a probability; stderr >= 0."""
    rows = _csv_rows(out)
    if [int(r["n"]) for r in rows] != list(CYLSUM_N):
        return [f"cylsum: rows for n = {[r['n'] for r in rows]}, expected {list(CYLSUM_N)}"]
    zeta = ifs.tilted_tail_sum(ifs.luroth_model(), 1, CYLSUM_S)
    bad = []
    for r in rows:
        n, value, stderr = int(r["n"]), float(r["value"]), float(r["stderr"])
        prob = value / zeta**n
        if not (0.0 <= prob <= 1.0 + 1e-12 and stderr >= 0.0):
            bad.append(f"cylsum: n={n} gives value/Z^n = {prob!r}, stderr {stderr!r}")
    return bad


def _read_word(ifs, label: str, text: str, length: int):
    word = ifs.word_from_line(text)
    if ifs.word_to_line(word) + "\n" != text:
        raise ValueError(f"{label}: the word file does not round-trip through the codec")
    if len(word) != length:
        raise ValueError(f"{label}: word has {len(word)} digits, expected {length}")
    return word


def check_linear(ifs, cmd: Command, out: str, word_text: str) -> list[str]:
    """The word round-trips and meets the exact linear sandwich."""
    word = _read_word(ifs, "linear", word_text, cmd.digits)
    if len(_csv_rows(out)) != cmd.digits:
        return ["linear: trace rows do not match the word length"]
    bad = ifs.linear.sandwich_violations(LINEAR_THETA, word)
    return [f"linear: sandwich fails at n = {bad[:5]}"] if bad else []


def check_sublinear(ifs, cmd: Command, out: str, word_text: str) -> list[str]:
    """The word round-trips and meets f(n) <= D_n <= f(n) + K_n."""
    word = _read_word(ifs, "sublinear", word_text, cmd.digits)
    if len(_csv_rows(out)) != cmd.digits:
        return ["sublinear: trace rows do not match the word length"]
    profile = ifs.sublinear.profile_from_spec(
        {"kind": "sqrt", "horizon": max(SUBLINEAR_N, 1024)})
    sched = ifs.sublinear.build_sublinear_schedule(ifs.luroth_model(), profile, SUBLINEAR_T)
    bad = sched.sandwich_violations(word)
    return [f"sublinear: sandwich fails at n = {bad[:5]}"] if bad else []


CHECKS = {
    "simulate": check_simulate,
    "cylsum": check_cylsum,
    "linear": check_linear,
    "sublinear": check_sublinear,
}
