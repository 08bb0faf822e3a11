"""Self-verification suites: one table of named checks over all modules.

Each check is a small, deterministic procedure that either returns a
detail string or raises :class:`CheckFailure`.  :data:`CHECKS` lists every
check once, in run order, as a row ``(name, function, tier, budget)``, and
:func:`run_check` runs and times one row.  The ``quick`` tier (23 checks,
about 1 s) runs the rows of tier ``quick``: the module invariants plus
A4, A7, A9 and A10.  The ``full`` tier (29 checks, about 5 s) runs every
row, so it adds A1, A2, A3, A5, A6 and A8.  The acceptance criteria A1-A10
are the rows named ``A#``, with their thresholds in the check and their
runtime budgets in the row; ``tests/test_acceptance.py`` runs those same
rows through :func:`run_check`.  A check gets ``seed`` or ``threads`` only if
its signature names them: 13 rows read the seed, and ``occupancy-law-small``,
A1 and A2 also the threads.  Only a failed row that reads the seed ends in
``[reproduce with seed=S]``.  The sandwich rows draw the CLI's words, those of
``construct linear --depth 8 --seed W`` for W = S..S+2 and ``construct
sublinear --n N --seed S`` for N = 20000 and 10000.
"""

from __future__ import annotations

import inspect
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import linear, occupancy, sublinear, tilt, weights
from .errors import NotAdmissibleError
from .rng import DEFAULT_SEED, substream

__all__ = ["CHECKS", "CheckFailure", "CheckResult", "VerifyReport", "run_check", "run_suite"]


class CheckFailure(AssertionError):
    """A named invariant did not hold."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    seconds: float
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    tier: str
    seed: int
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = [f"# verification tier={self.tier} seed={self.seed}"]
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            lines.append(f"{mark} {r.name} ({r.seconds:.2f}s): {r.detail}")
        n_fail = sum(not r.passed for r in self.results)
        lines.append(
            f"# {len(self.results)} checks, {n_fail} failed"
            if n_fail
            else f"# {len(self.results)} checks, all passed"
        )
        return "\n".join(lines) + "\n"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


# -- weights ------------------------------------------------------------------------


def _models_under_test():
    return [
        ("luroth", weights.luroth_model()),
        ("power(3)", weights.power_model(3.0)),
        ("power-log(2,1)", weights.power_log_model(2.0, 1.0)),
        ("explicit-prefix", weights.explicit_prefix_model((0.4, 0.2), 2.5)),
    ]


def check_weights_normalization() -> str:
    worst = 0.0
    for name, model in _models_under_test():
        err = abs(weights.tail_sum(model, 1) - 1.0)
        worst = max(worst, err)
        _require(err < 1e-12, f"{name}: total mass off by {err:.2e}")
    return f"four model kinds normalized, worst residual {worst:.1e}"


def check_weights_tilt_monotone() -> str:
    model = weights.luroth_model()
    grid = np.linspace(0.55, 1.0, 10)
    vals = [weights.tilted_tail_sum(model, 1, float(s)) for s in grid]
    _require(
        all(a > b for a, b in zip(vals, vals[1:])),
        "tilted total not strictly decreasing in s",
    )
    return f"Z(s) strictly decreasing over 10 grid points, Z(0.55)={vals[0]:.4f}"


def check_weights_potter() -> str:
    model = weights.luroth_model()
    rep = weights.potter_scan(model, 1.0)
    _require(rep.k_eps == 1, f"k_eps={rep.k_eps}, expected 1")
    _require(rep.C_eps <= 2.0, f"C_eps={rep.C_eps} above 2")
    _require(
        weights.verify_potter_report(model, rep), "independent re-scan disagreed"
    )
    return f"dyadic ratio scan: k_eps={rep.k_eps}, C_eps={rep.C_eps}, re-verified"


def check_weights_sampler_law(seed: int) -> str:
    model = weights.luroth_model()
    rng = substream(seed, 0x5A)
    n = 200_000
    draws = weights.DigitSampler(model).sample(rng, n)
    worst = 0.0
    for k in range(1, 11):
        p = weights.weight(model, k)
        zscore = abs(np.count_nonzero(draws == k) - n * p) / math.sqrt(
            n * p * (1 - p)
        )
        worst = max(worst, zscore)
        _require(zscore < 4.0, f"digit {k} frequency off by {zscore:.1f} sd")
    return f"digit frequencies within 4 sd for k<=10 (worst {worst:.2f})"


# -- occupancy ----------------------------------------------------------------------

_PI_MINUS_3_PARTIAL_QUOTIENTS = (
    7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14, 2, 1, 1, 2, 2, 2, 2, 1,
    84, 2, 1, 1, 15, 3, 13, 1, 4, 2,
)


def check_occupancy_counter() -> str:
    count = int(occupancy.distinct_counts((7, 15, 1, 292, 1, 1, 1, 2))[-1])
    _require(count == 5, f"eight-digit stream counted {count}, expected 5")
    counts = occupancy.distinct_counts(_PI_MINUS_3_PARTIAL_QUOTIENTS)
    _require(
        int(counts[-1]) == 10,
        f"30-term partial-quotient stream counted {counts[-1]}, expected 10",
    )
    diffs = np.diff(np.concatenate(([0], counts)))
    _require(
        diffs.min() >= 0 and diffs.max() <= 1, "distinct count must step by 0 or 1"
    )
    return "streaming counts match hand counts; increments in {0,1}"


def check_occupancy_expectation() -> str:
    model = weights.luroth_model()
    _require(occupancy.expected_distinct(model, 1) == 1.0, "one draw occupies one box")
    k = np.arange(1, 200_001, dtype=np.float64)
    p = 1.0 / (k * (k + 1.0))
    brute = float(np.sum(-np.expm1(100 * np.log1p(-p)))) + 100.0 / 200_001.0
    fast = occupancy.expected_distinct(model, 100)
    _require(abs(fast - brute) < 1e-6, f"n=100 expectation {fast} vs brute {brute}")
    _require(abs(fast - 16.7577335464) < 1e-6, f"n=100 expectation {fast:.6f} not 16.757734")
    big = occupancy.expected_distinct(model, 10**6)
    root = math.sqrt(math.pi * 10**6)
    _require(root - 40 < big < root, f"n=1e6 expectation {big:.1f} outside bracket")
    return f"E D_100 = {fast:.4f}, E D_1e6 = {big:.2f} inside the leading-order bracket"


def check_occupancy_law_small(seed: int, threads: int) -> str:
    model = weights.luroth_model()
    report = occupancy.monte_carlo_law(model, 10_000, 30, seed, threads=threads)
    exact = report.exact_expectations[-1]
    mean = report.mean_final_distinct
    se = report.sds[-1] * math.sqrt(10_000) / math.sqrt(report.trials)
    _require(
        abs(mean - exact) < 4 * se,
        f"mean {mean:.1f} vs exact {exact:.1f} beyond 4 se ({se:.2f})",
    )
    gaps = [abs(m - report.karlin) for m in report.means]
    _require(
        gaps[-1] == min(gaps), "final checkpoint is not the closest to the limit"
    )
    return f"n=1e4 law: mean {mean:.1f} vs exact {exact:.1f}, final checkpoint closest"


# -- linear construction -------------------------------------------------------------


def check_linear_uniformity(seed: int) -> str:
    model = weights.luroth_model()
    sched = linear.build_block_schedule(model, 0.5, depth=3)
    for j in (1, 2, 3):
        alphabet = sched.window(j)
        prefix = [sched.sample_block(i, substream(seed, 0xB10C, i)) for i in range(1, j)]
        total = 0.0
        for block in linear.enumerate_blocks(len(alphabet), 1 << j, 0.5, alphabet=alphabet):
            word = np.concatenate(prefix + [block]) if prefix else block
            total += math.exp(sched.log_mass(word))
        expected = math.exp(sched.log_mass(np.concatenate(prefix))) if prefix else 1.0
        _require(
            abs(total - expected) < 1e-12,
            f"level {j} block masses sum to {total}, want {expected}",
        )
    return "level masses sum to the parent mass exactly (levels 1..3)"


def _linear_sandwich(depth: int, word_seeds) -> dict[str, int]:
    """Sandwich violations per failing word of ``construct linear --depth {depth}``."""
    failures = {}
    for theta in (0.3, 0.5, 1.0):
        sched = linear.build_block_schedule(weights.luroth_model(), theta, depth=depth)
        for word_seed in word_seeds:
            word = sched.sample_word(depth, substream(word_seed, 0x11EA, depth))
            if bad := linear.sandwich_violations(theta, word):
                failures[f"theta={theta}, word seed {word_seed}"] = len(bad)
    return failures


def check_linear_sandwich(seed: int) -> str:
    failures = _linear_sandwich(8, range(seed, seed + 3))
    _require(not failures, f"sandwich violations per failing word: {failures}")
    return "theta*n <= D_n < theta*n + level holds exactly (3 rates, 3 seeds, depth 8)"


def check_linear_mass_additivity(seed: int) -> str:
    model = weights.luroth_model()
    sched = linear.build_block_schedule(model, 0.5, depth=2)
    word = sched.sample_word(1, substream(seed, 0xADD))
    base = math.exp(sched.log_mass(word))
    total = 0.0
    for d in sched.window(2):
        try:
            total += math.exp(sched.log_mass(np.append(word, d)))
        except linear.NotInSupportError:
            continue
    _require(abs(total - base) < 1e-12, f"extensions sum to {total}, want {base}")
    return "one-step extension masses add up to the prefix mass"


def check_linear_local_dimension(seed: int) -> str:
    model = weights.luroth_model()
    sched = linear.build_block_schedule(model, 0.5, depth=10)
    rng_word = sched.sample_word(10, substream(seed, 0xD10))
    dims = [
        sched.local_dimension(rng_word[: sched.boundary(j)]) for j in range(4, 11)
    ]
    _require(all(d > 0 for d in dims), "local dimension must be positive")
    steps = [abs(b - a) for a, b in zip(dims, dims[1:])]
    _require(
        all(b < a for a, b in zip(steps, steps[1:])),
        f"local-dimension steps not shrinking: {steps}",
    )
    return f"local dimension stabilizes: depth-10 value {dims[-1]:.3f}"


# -- sublinear construction ----------------------------------------------------------


def check_sublinear_profiles() -> str:
    prof = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 10_000})
    k = np.arange(10_001)
    _require(
        np.array_equal(prof.values, np.asarray([math.isqrt(int(v)) for v in k])),
        "sqrt profile must equal the integer square root exactly",
    )
    try:
        sublinear.make_admissible(np.arange(1, 10_001) / 2.0)
    except NotAdmissibleError as exc:
        _require("decay clause" in str(exc), f"wrong clause named: {exc}")
    else:
        raise CheckFailure("linear growth accepted as admissible")
    return "sqrt profile exact; linear growth rejected naming the decay clause"


def _sublinear_words(horizon: int, word_seeds) -> tuple[dict[str, int], list[str], int]:
    """Sandwich violations per failing word, the words whose log ratio does not fall (maximum
    over ``[h/2 - 1:]`` not below that over ``[:h/2]``) and the trace count, over the words
    ``construct sublinear --t t --n {horizon}`` writes at t = 0.5, 0.9 for each word seed."""
    model = weights.luroth_model()
    profile = sublinear.profile_from_spec({"kind": "sqrt", "horizon": horizon})
    violations, no_decay = {}, []
    for t in (0.5, 0.9):
        sched = sublinear.build_sublinear_schedule(model, profile, t)
        for word_seed in word_seeds:
            word = sched.sample_word(horizon, substream(word_seed, 0x5B11, horizon))
            key = f"t={t}, word seed {word_seed}"
            if bad := sched.sandwich_violations(word):
                violations[key] = len(bad)
            log_ratio = sched.ratio_trace(word).log_ratio
            if not log_ratio[horizon // 2 - 1 :].max() < log_ratio[: horizon // 2].max():
                no_decay.append(key)
    return violations, no_decay, 2 * len(word_seeds)


def check_sublinear_sandwich(seed: int) -> str:
    model = weights.luroth_model()
    prof = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 20_000})
    for t in (0.5, 0.9):
        sched = sublinear.build_sublinear_schedule(model, prof, t)
        kvals, first = np.unique(sched.K, return_index=True)
        for K, s in zip(kvals, sched.s_of_n[first]):
            resid = abs(float(np.sum(sched.sorted_weights[:K] ** s)) - 1.0)
            _require(resid < 1e-10, f"t={t}: tilt normalization residual {resid:.2e}")
    violations, _, _ = _sublinear_words(20_000, (seed,))
    _require(not violations, f"sandwich violations per failing word: {violations}")
    return "f(n) <= D_n <= f(n) + K_n exactly for t in {0.5, 0.9} at horizon 2e4"


def check_sublinear_ratio_decay(seed: int) -> str:
    _, no_decay, traces = _sublinear_words(10_000, (seed,))
    _require(not no_decay, f"late-window ratio maximum not below the early one for {no_decay}")
    return f"log mass-to-diameter ratio drifts down in {traces}/{traces} traces at horizon 1e4"


# -- tilt ---------------------------------------------------------------------------


def _distinct_mass(q: list[float], m: int) -> list[float]:
    """Brute-force oracle: ``[P(m draws from q take d distinct values) for d]``."""
    mass = [0.0] * (len(q) + 1)
    for word in itertools.product(range(len(q)), repeat=m):
        mass[len(set(word))] += math.prod(q[i] for i in word)
    return mass


def _change_of_measure(cap: int, lengths) -> dict[str, float]:
    """Relative gap per cell (m, s, theta) of ``S_m = Z**m P(D_m >= threshold)`` at
    ``cap``: ``cylinder_sum_exact`` against :func:`_distinct_mass`."""
    model = weights.luroth_model()
    gaps = {}
    for s in (0.6, 0.75, 0.9):
        w = [weights.weight(model, k) ** s for k in range(1, cap + 1)]
        z = math.fsum(w)
        q = [x / z for x in w]
        for m in lengths:
            mass = _distinct_mass(q, m)
            for theta in (0.4, 0.8, 1.0):
                rhs = z**m * math.fsum(mass[tilt.distinct_threshold(m, theta) :])
                rec = tilt.cylinder_sum_exact(model, m, s, theta, alphabet_cap=cap)
                gaps[f"(m={m}, s={s}, theta={theta})"] = abs(rec.value - rhs) / rhs
    return gaps


def check_tilt_change_of_measure() -> str:
    gaps = _change_of_measure(5, range(2, 6))
    cell = max(gaps, key=gaps.get)
    _require(gaps[cell] < 1e-12, f"{cell}: rel {gaps[cell]:.2e}")
    return f"Z**n x tilted probability matches the direct sum (worst rel {gaps[cell]:.1e})"


def check_tilt_monotonicity() -> str:
    model = weights.luroth_model()
    for theta in (0.4, 0.8):
        vals = [
            tilt.cylinder_sum_exact(model, 4, s, theta, alphabet_cap=5).value
            for s in (0.6, 0.75, 0.9)
        ]
        _require(vals[0] >= vals[1] >= vals[2], f"sum increased in s at theta={theta}")
    for s in (0.6, 0.9):
        vals = [
            tilt.cylinder_sum_exact(model, 4, s, theta, alphabet_cap=5).value
            for theta in (0.4, 0.8, 1.0)
        ]
        _require(vals[0] >= vals[1] >= vals[2], f"sum increased in theta at s={s}")
    return "S_n nonincreasing in s and in theta on the exact grid"


def check_tilt_mc(seed: int) -> str:
    # At n = 4, theta = 1 the threshold is 2: every word but the constant ones
    # counts, so S_4(s, 1) = Z(s)**4 - Z(4s), on the full alphabet or any cap.
    model, s, cap = weights.luroth_model(), 0.75, 6
    full = weights.tilted_tail_sum(model, 1, s) ** 4 - weights.tilted_tail_sum(model, 1, 4 * s)
    rec = tilt.cylinder_sum_mc(model, 4, s, 1.0, trials=200_000, seed=seed)
    _require(
        abs(rec.value - full) < 4 * (rec.stderr or 1e-9),
        f"Monte Carlo estimate {rec.value:.4f} vs exact {full:.4f}",
    )
    w = weights.weights_range(model, 1, cap + 1) ** s
    capped = math.fsum(w) ** 4 - math.fsum(w**4)
    rel = abs(tilt.cylinder_sum_exact(model, 4, s, 1.0, cap).value - capped) / capped
    _require(rel < 1e-12, f"exact mode at cap {cap}: rel {rel:.2e}")
    return f"S_4(0.75, 1) on luroth: {full:.4f}, MC {rec.value:.4f}; cap {cap} exact to {rel:.1e}"


def check_tilt_bound_chain() -> str:
    # The chain's first link, both sides exact on the capped alphabet: m distinct
    # digits put digits >= ceil(m/2) on at least ceil(m/2) positions.
    model, cap = weights.luroth_model(), 64
    cells = []
    for n, s, theta in ((80, 0.75, 0.5), (40, 0.9, 0.5), (20, 0.75, 1.0)):
        lhs = tilt.cylinder_sum_exact(model, n, s, theta, cap).prob
        r = math.ceil(tilt.distinct_threshold(n, theta) / 2)
        w = weights.weights_range(model, 1, cap + 1) ** s
        q = math.fsum(w[r - 1 :]) / math.fsum(w)
        rhs = math.fsum(math.comb(n, j) * q**j * (1.0 - q) ** (n - j) for j in range(r, n + 1))
        cell = f"(n={n}, s={s}, theta={theta})"
        _require(
            1e-6 < lhs <= rhs < 1.0 - 1e-6,
            f"{cell}: P(D_n >= m) = {lhs:.3g} vs binomial tail {rhs:.3g}",
        )
        cells.append(f"{lhs:.3f} <= {rhs:.3f}")
    return "P(D_n >= m) <= P(Bin(n, Q) >= ceil(m/2)) exactly at cap 64: " + ", ".join(cells)


# -- rng ----------------------------------------------------------------------------


def check_rng_reproducibility(seed: int) -> str:
    a = substream(seed, 1, 2).random(8)
    b = substream(seed, 1, 2).random(8)
    c = substream(seed, 1, 3).random(8)
    _require(np.array_equal(a, b), "same substream path must replay identically")
    _require(not np.array_equal(a, c), "distinct substream paths must differ")
    return "substreams replay bit-identically and are path-separated"


# -- acceptance criteria A1-A10 ---------------------------------------------------


def check_a1_luroth_occupancy_law(seed: int, threads: int) -> str:
    n = 10**6
    report = occupancy.monte_carlo_law(
        weights.luroth_model(), n, 100, seed, checkpoints=(n,), threads=threads
    )
    ratio = report.means[-1]
    exact = report.exact_expectations[-1]
    rel_err = abs(report.mean_final_distinct - exact) / exact
    detail = (
        f"mean D/sqrt(n) = {ratio:.4f} in [1.7125, 1.8325] "
        f"(sqrt(pi) = {math.sqrt(math.pi):.4f}); mean D vs exact off by "
        f"{100 * rel_err:.3f}% (<1%)"
    )
    _require(1.7125 <= ratio <= 1.8325 and rel_err < 0.01, detail)
    return detail


def check_a2_power_law_occupancy(seed: int, threads: int) -> str:
    report = occupancy.monte_carlo_law(
        weights.power_model(3.0), 10**6, 50, seed, threads=threads
    )
    exact = report.exact_expectations[-1]
    rel_err = abs(report.mean_final_distinct - exact) / exact
    const = report.karlin
    gaps = [abs(mean - const) for mean in report.means]
    closest, i = gaps[-1] == min(gaps), gaps.index(min(gaps))
    detail = (
        f"mean D vs exact off by {100 * rel_err:.3f}% (<1%); law constant "
        f"{const:.4f} approached, final-checkpoint gap {gaps[-1]:.4f} is "
        f"{'the' if closest else 'not the'} smallest of {len(gaps)} checkpoints"
        + ("" if closest else f"; the smallest is {gaps[i]:.4f} at n = {report.checkpoints[i]}")
    )
    _require(rel_err < 0.01 and gaps[-1] == min(gaps), detail)
    return detail


def check_a3_linear_sandwich() -> str:
    failures = _linear_sandwich(14, range(10))
    detail = (
        f"0 sandwich violations required, {sum(failures.values())} found over 30 "
        f"words (3 rates x 10 seeds, depth 14, n up to {2**15 - 2})"
    )
    _require(not failures, f"{detail}; violations per failing word: {failures}")
    return detail


def check_a4_block_count_formula() -> str:
    mismatches = 0
    cases = 0
    for N, L, theta in itertools.product(range(1, 6), range(1, 7), (0.3, 0.5, 1.0)):
        enumerated = len(list(linear.enumerate_blocks(N, L, theta)))
        if linear.distinctness_profile(theta, L).new_count > N:
            formula = 0
        else:
            formula = linear.count_blocks(N, L, theta).exact
        cases += 1
        if formula != enumerated:
            mismatches += 1
    detail = (
        f"counting formula equals exhaustive enumeration on all {cases} "
        f"(N <= 5, L <= 6, theta) grid cells, {mismatches} mismatches"
    )
    _require(mismatches == 0, detail)
    return detail


def check_a5_local_dimension_trend() -> str:
    sched = linear.build_block_schedule(weights.luroth_model(), 0.5, depth=14)
    word = sched.sample_word(14, substream(0, 0x11EA, 14))
    d14 = sched.local_dimension(word)
    d6 = sched.local_dimension(word[: sched.boundary(6)])
    detail = (
        f"depth-14 local dimension {d14:.4f} in [0.40, 0.60] and closer to "
        f"0.5 than depth-6 value {d6:.4f}"
    )
    _require(0.40 <= d14 <= 0.60 and abs(d14 - 0.5) < abs(d6 - 0.5), detail)
    return detail


def check_a6_change_of_measure_identity(seed: int) -> str:
    model = weights.luroth_model()
    gaps = _change_of_measure(6, range(1, 7))
    cell = max(gaps, key=gaps.get)
    exact6 = tilt.cylinder_sum_exact(model, 6, 0.75, 0.8, alphabet_cap=6)
    mc6 = tilt.cylinder_sum_mc(model, 6, 0.75, 0.8, trials=10**6, seed=seed)
    lo = exact6.value - 3.0 * mc6.stderr
    hi = exact6.value + exact6.truncation_deficit + 3.0 * mc6.stderr
    detail = (
        f"exact enumeration identity on {len(gaps)} grid cells, worst relative "
        f"gap {gaps[cell]:.2e} (<1e-12); 10^6-trial MC at n=6 inside the "
        "exact-plus-deficit bracket within 3 se"
    )
    _require(gaps[cell] < 1e-12 and lo <= mc6.value <= hi, f"{detail}; worst cell {cell}")
    return detail


def check_a7_tilted_tail_scaling() -> str:
    model = weights.luroth_model()
    ratios = {
        M: weights.tilted_tail_sum(model, M, 0.75) * math.sqrt(M)
        for M in (10, 10**2, 10**3, 10**4)
    }
    detail = "tilted tail times sqrt(M) stays in [1.5, 3.0]: " + ", ".join(
        f"M={M}: {r:.3f}" for M, r in ratios.items()
    )
    _require(all(1.5 <= r <= 3.0 for r in ratios.values()), detail)
    return detail


def check_a8_sublinear_sandwich_and_decay() -> str:
    violations, no_decay, traces = _sublinear_words(10**5, range(5))
    detail = (
        f"exact sandwich over {traces} words (2 targets x 5 seeds, n <= 10^5): "
        f"{sum(violations.values())} violations; late-window ratio maximum below the "
        f"early-window maximum in {traces - len(no_decay)}/{traces} traces"
    )
    _require(not violations and not no_decay, f"{detail}; failing words: {violations}, {no_decay}")
    return detail


def check_a9_combinatorial_lemma() -> str:
    report = tilt.distinct_forces_large_check(6, 6)
    ok = report.counterexample is None
    detail = (
        f"exhaustive distinct-forces-large scan over {report.tuples_checked} "
        f"tuples (n <= 6, values <= 6): "
        + ("no counterexample" if ok else f"counterexample {report.counterexample}")
    )
    _require(ok, detail)
    return detail


def check_a10_exponent_solver() -> str:
    model = weights.luroth_model()
    s1 = weights.partial_sum_exponent(model, 1)
    ladder = (2, 10, 100, 1000, 10**4)
    values = [weights.partial_sum_exponent(model, K) for K in ladder]
    residuals = []
    for K, s in zip(ladder, values):
        p = weights.weights_range(model, 1, K + 1)
        residuals.append(abs(math.fsum(p**s) - 1.0))
    monotone = all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    # independent bisection oracle for the two-digit exponent
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if 0.5**mid + (1.0 / 6.0) ** mid >= 1.0:
            lo = mid
        else:
            hi = mid
    s2_oracle = 0.5 * (lo + hi)
    detail = (
        f"s(1) = {s1} exactly; defining-equation residual <= "
        f"{max(residuals):.1e} (<1e-12) for K up to 10^4; nondecreasing in K; "
        f"s(2) = {values[0]:.6f} matches the bisection oracle "
        f"{s2_oracle:.6f} and 0.601 +/- 0.001; s(1000) = {values[3]:.4f} > 0.9"
    )
    _require(
        s1 == 0.0
        and max(residuals) < 1e-12
        and monotone
        and abs(values[0] - 0.601) <= 1e-3
        and abs(values[0] - s2_oracle) < 1e-10
        and values[3] > 0.9,
        detail,
    )
    return detail


# Every check in run order: (name, function, tier, budget in seconds or None).
# The quick tier holds the module invariants and the criteria that draw
# nothing (A4, A7, A9, A10); the criteria that sample words or trials run in
# the full tier only.
CHECKS = (
    ("weights-normalization", check_weights_normalization, "quick", None),
    ("weights-tilt-monotone", check_weights_tilt_monotone, "quick", None),
    ("weights-potter-scan", check_weights_potter, "quick", None),
    ("weights-sampler-law", check_weights_sampler_law, "quick", None),
    ("occupancy-counter", check_occupancy_counter, "quick", None),
    ("occupancy-expectation", check_occupancy_expectation, "quick", None),
    ("occupancy-law-small", check_occupancy_law_small, "quick", None),
    ("linear-uniformity", check_linear_uniformity, "quick", None),
    ("linear-sandwich", check_linear_sandwich, "quick", None),
    ("linear-mass-additivity", check_linear_mass_additivity, "quick", None),
    ("linear-local-dimension", check_linear_local_dimension, "quick", None),
    ("sublinear-profiles", check_sublinear_profiles, "quick", None),
    ("sublinear-sandwich", check_sublinear_sandwich, "quick", None),
    ("sublinear-ratio-decay", check_sublinear_ratio_decay, "quick", None),
    ("tilt-change-of-measure", check_tilt_change_of_measure, "quick", None),
    ("tilt-monotonicity", check_tilt_monotonicity, "quick", None),
    ("tilt-mc", check_tilt_mc, "quick", None),
    ("tilt-bound-chain", check_tilt_bound_chain, "quick", None),
    ("rng-reproducibility", check_rng_reproducibility, "quick", None),
    ("A4", check_a4_block_count_formula, "quick", 60),
    ("A7", check_a7_tilted_tail_scaling, "quick", None),
    ("A9", check_a9_combinatorial_lemma, "quick", None),
    ("A10", check_a10_exponent_solver, "quick", None),
    ("A1", check_a1_luroth_occupancy_law, "full", 120),
    ("A2", check_a2_power_law_occupancy, "full", None),
    ("A3", check_a3_linear_sandwich, "full", 60),
    ("A5", check_a5_local_dimension_trend, "full", 60),
    ("A6", check_a6_change_of_measure_identity, "full", None),
    ("A8", check_a8_sublinear_sandwich_and_decay, "full", 120),
)


def run_check(row: tuple, seed: int, threads: int) -> CheckResult:
    """Run and time one row of :data:`CHECKS`, passing ``seed`` and ``threads`` only to
    a check whose signature names them.  A :class:`CheckFailure` or a run over the
    row's budget fails the row, and a failed row that reads the seed names it."""
    name, fn, _, budget = row
    params = inspect.signature(fn).parameters
    inputs = {key: value for key, value in (("seed", seed), ("threads", threads)) if key in params}
    start = time.perf_counter()
    try:
        detail = fn(**inputs)
        passed = True
    except CheckFailure as exc:
        detail = str(exc)
        passed = False
    seconds = time.perf_counter() - start
    if budget is not None:
        detail += f"; {seconds:.1f}s (<{budget:g}s)"
        passed = passed and seconds < budget
    if not passed and "seed" in inputs:
        detail += f" [reproduce with seed={seed}]"
    return CheckResult(name=name, passed=passed, seconds=seconds, detail=detail)


def run_suite(tier: str = "quick", seed: int = DEFAULT_SEED, threads: int = 1) -> VerifyReport:
    if tier not in ("quick", "full"):
        raise ValueError(f"unknown verification tier {tier!r}")
    results = tuple(
        run_check(row, seed, threads) for row in CHECKS if tier == "full" or row[2] == "quick"
    )
    return VerifyReport(tier=tier, seed=seed, results=results)
