"""Distinct-digit counting, exact expectations, and the occupancy growth law."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifsdigits import cli, occupancy, weights
from ifsdigits.errors import DomainError
from ifsdigits.rng import substream

LUROTH = weights.luroth_model()

# First 30 continued-fraction partial quotients of pi - 3, used purely as a
# fixed irregular integer stream with a hand-countable distinct profile.
PI_MINUS_3_CF = (
    7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14, 2, 1, 1, 2, 2, 2, 2, 1,
    84, 2, 1, 1, 15, 3, 13, 1, 4, 2,
)

# E D_100 for the luroth weights, frozen from a 3e6-term direct sum with a
# second-order remainder bracket (width < 3e-14).
E_D_100_LUROTH = 16.757733546404


def reference_distinct_counts(word):
    """The sort-based ``distinct_counts`` that the dense kernel replaced."""
    word = np.asarray(word)
    if word.size == 0:
        return np.zeros(0, dtype=np.int64)
    first = np.sort(np.unique(word, return_index=True)[1])
    return np.searchsorted(first, np.arange(1, word.size + 1), side="left").astype(
        np.int64
    )


def reference_trial_counts(model, n, trials, seed, checkpoints):
    """The per-trial first-occurrence loop that ``monte_carlo_law`` used to run."""
    sampler = weights.DigitSampler(model)
    cps = np.asarray(checkpoints, dtype=np.int64)
    rows = []
    for trial in range(trials):
        word = sampler.sample(substream(seed, trial), n)
        first = np.sort(np.unique(word, return_index=True)[1])
        rows.append(np.searchsorted(first, cps, side="left"))
    return np.stack(rows)


def reference_expected_distinct(model, n):
    """One checkpoint's ``expected_distinct``: its own pass over the weights."""
    if n == 1:
        return 1.0
    total = 0.0
    lo = 1
    chunk = 1 << 14
    while True:
        hi = lo + chunk
        p = weights.weights_range(model, lo, hi)
        terms = -np.expm1(n * np.log1p(-p))
        total += float(terms.sum())
        lo = hi
        chunk = min(chunk * 2, 1 << 22)
        if terms[-1] < 1e-12 * total or n * p[-1] < 1e-6:
            break
    t1 = weights.tail_sum(model, lo)
    t2 = weights.tilted_tail_sum(model, lo, 2.0)
    return total + max(n * t1 - 0.5 * n * (n - 1) * t2, 0.0)


# Digits on both sides of the dense table's edge (2**16) and far past it.
KERNEL_DIGITS = st.one_of(
    st.integers(1, 40),
    st.sampled_from([65535, 65536, 65537]),
    st.integers(65538, 2**62),
)


class TestDistinctCountsKernel:
    @given(st.lists(KERNEL_DIGITS, max_size=400))
    def test_matches_reference(self, digits):
        word = np.asarray(digits, dtype=np.int64)
        assert np.array_equal(occupancy.distinct_counts(word), reference_distinct_counts(word))

    @pytest.mark.parametrize("word", [
        [],
        [1],
        [65536],
        [2**62],
        [7] * 50,
        [65537] * 50,
        [2**62, 1, 2**62, 65536, 65537, 65536, 1, 3],
    ])
    def test_edge_words(self, word):
        word = np.asarray(word, dtype=np.int64)
        got = occupancy.distinct_counts(word)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_distinct_counts(word))

    def test_list_and_int32_input(self):
        digits = [3, 1, 65537, 3, 65536, 2, 1, 70000, 65537]
        expect = reference_distinct_counts(np.asarray(digits))
        assert np.array_equal(occupancy.distinct_counts(digits), expect)
        assert np.array_equal(occupancy.distinct_counts(np.asarray(digits, dtype=np.int32)), expect)

    def test_sampled_words(self):
        for model in (LUROTH, weights.power_model(1.5), weights.power_model(3.0)):
            word = weights.DigitSampler(model).sample(substream(11, 0), 200_000)
            assert np.array_equal(occupancy.distinct_counts(word), reference_distinct_counts(word))

    @pytest.mark.parametrize("bad", [0, -1])
    @pytest.mark.parametrize("at", [0, 77_777, 99_999])
    def test_nonpositive_digit_rejected(self, bad, at):
        word = np.arange(1, 100_001, dtype=np.int64)
        word[at] = bad
        with pytest.raises(DomainError, match="positive"):
            occupancy.distinct_counts(word)
        with pytest.raises(DomainError, match="positive"):
            occupancy.distinct_counts([bad])


class FakePool:
    """Records ``max_workers`` and maps serially: no thread is started."""

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestThreadClamp:
    @pytest.mark.parametrize("threads,trials,cpus,workers", [
        (100_000, 40, 2, 2),  # the core count bounds a huge request
        (100_000, 3, 64, 3),  # so does the trial count
        (4, 40, 8, 4),
        (8, 40, None, None),  # unknown core count: serial
        (4, 1, 8, None),  # one trial: serial
    ])
    def test_workers_clamped(self, monkeypatch, threads, trials, cpus, workers):
        FakePool.seen = []
        monkeypatch.setattr(occupancy, "ThreadPoolExecutor", FakePool)
        monkeypatch.setattr(occupancy.os, "cpu_count", lambda: cpus)
        report = occupancy.monte_carlo_law(LUROTH, 50, trials, 7, threads=threads)
        assert FakePool.seen == ([] if workers is None else [workers])
        assert report == occupancy.monte_carlo_law(LUROTH, 50, trials, 7, threads=1)


class TestDistinctCounter:
    """Hand-counted streams for ``distinct_counts``, the one distinct counter."""

    def test_hand_counted_stream(self):
        counts = occupancy.distinct_counts((7, 15, 1, 292, 1, 1, 1, 2))
        assert counts.tolist() == [1, 2, 3, 4, 4, 4, 4, 5]

    def test_pi_partial_quotients(self):
        assert occupancy.distinct_counts(PI_MINUS_3_CF)[-1] == 10

    def test_increments_bounded(self):
        steps = np.diff(occupancy.distinct_counts(PI_MINUS_3_CF), prepend=0)
        assert set(steps.tolist()) <= {0, 1}

    def test_first_occurrence_times(self):
        word = (7, 15, 1, 292, 1, 1, 1, 2)
        steps = np.diff(occupancy.distinct_counts(word), prepend=0)
        first = {word[i]: i + 1 for i in np.flatnonzero(steps)}
        assert first == {7: 1, 15: 2, 1: 3, 292: 4, 2: 8}

    def test_overflow_digits(self):
        # 10**12 lies far past the dense table, in the shared overflow slot
        assert occupancy.distinct_counts((1, 10**12, 10**12, 2)).tolist() == [1, 2, 2, 3]

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            occupancy.distinct_counts((3, 0, 1))

    @given(st.lists(st.integers(min_value=1, max_value=30), max_size=200))
    def test_matches_vectorized_counts(self, digits):
        seen = set()
        streamed = []
        for d in digits:
            seen.add(d)
            streamed.append(len(seen))
        assert occupancy.distinct_counts(np.asarray(digits, dtype=np.int64)).tolist() == streamed


class TestExpectedDistinct:
    def test_one_draw(self):
        assert occupancy.expected_distinct(LUROTH, 1) == 1.0
        assert occupancy.expected_distinct(weights.power_model(3.0), 1) == 1.0

    def test_power_log_tilt_out_of_range(self):
        # the remainder takes a tilted tail at s = 2: gamma * s = -1.8 <= -1
        m = weights.power_log_model(2.0, -0.9)
        with pytest.raises(DomainError, match="above -1"):
            occupancy.expected_distinct(m, 1000)

    def test_luroth_n100_oracle(self):
        got = occupancy.expected_distinct(LUROTH, 100)
        assert got == pytest.approx(E_D_100_LUROTH, abs=1e-6)

    def test_against_direct_sum(self):
        n = 1000
        k = np.arange(1, 2_000_001, dtype=np.float64)
        p = 1.0 / (k * (k + 1.0))
        brute = float(np.sum(-np.expm1(n * np.log1p(-p))))
        tail = n / 2_000_001.0  # n * tail_sum bracket on the remainder
        got = occupancy.expected_distinct(LUROTH, n)
        assert brute <= got <= brute + tail + 1e-9

    def test_monotone_in_n(self):
        vals = [occupancy.expected_distinct(LUROTH, n) for n in (1, 2, 5, 10, 100, 1000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_large_n_matches_growth_law(self):
        big = occupancy.expected_distinct(LUROTH, 10**6)
        root = math.sqrt(math.pi * 10**6)
        assert root - 40 < big < root

    def test_bad_n(self):
        with pytest.raises(DomainError):
            occupancy.expected_distinct(LUROTH, 0)

    @pytest.mark.parametrize("model", [
        LUROTH, weights.power_model(1.5), weights.power_log_model(2.0, 1.5),
        weights.explicit_prefix_model((0.4, 0.2), rho=2.5),
    ], ids=["luroth", "power-1.5", "power-log", "explicit-prefix"])
    def test_shared_pass_matches_one_pass_per_checkpoint(self, model):
        # monte_carlo_law sums each weight chunk once for all its checkpoints
        cps = (1, 2, 100, 4096, 20_000)
        rep = occupancy.monte_carlo_law(model, 20_000, 2, 0, checkpoints=cps)
        assert rep.exact_expectations == tuple(reference_expected_distinct(model, c) for c in cps)


class TestKarlinConstant:
    def test_luroth_constant_is_root_pi(self):
        assert occupancy.karlin_constant(2.0, 1.0) == pytest.approx(
            math.sqrt(math.pi), rel=1e-15
        )

    def test_power3_constant(self):
        c = occupancy.karlin_constant(3.0, 0.831907372580707469)
        assert c == pytest.approx(1.2735465276371152, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            occupancy.karlin_constant(1.0, 1.0)
        with pytest.raises(DomainError):
            occupancy.karlin_constant(2.0, 0.0)


class TestMonteCarloLaw:
    def test_thread_count_does_not_change_results(self):
        kw = dict(n=2000, trials=8, checkpoints=(500, 1000, 2000), seed=5)
        a = occupancy.monte_carlo_law(LUROTH, threads=1, **kw)
        b = occupancy.monte_carlo_law(LUROTH, threads=4, **kw)
        assert a.means == b.means
        assert a.sds == b.sds

    @pytest.mark.parametrize("model", [
        LUROTH, weights.power_model(1.5), weights.power_log_model(2.0, 1.5),
    ], ids=["luroth", "power-1.5", "power-log"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_reference_loop(self, model, threads):
        n, trials, seed = 20_000, 4, 21
        cps = (100, 1000, 4096, 20_000)
        if model.kind == "power":
            # fallback draws past the sampler table reach the kernel's overflow slot
            sampler = weights.DigitSampler(model)
            assert (sampler.sample(substream(seed, 0), n) > sampler._table_size).any()
        ref = reference_trial_counts(model, n, trials, seed, cps)
        rep = occupancy.monte_carlo_law(model, n, trials, seed, checkpoints=cps, threads=threads)
        ratios = ref / np.asarray(cps) ** (1.0 / model.rho)
        assert rep.means == tuple(float(v) for v in ratios.mean(axis=0))
        assert rep.sds == tuple(float(v) for v in ratios.std(axis=0, ddof=1))
        assert rep.mean_final_distinct == float(ref[:, -1].mean())

    def test_seed_replay(self):
        a = occupancy.monte_carlo_law(LUROTH, n=500, trials=4, seed=9)
        b = occupancy.monte_carlo_law(LUROTH, n=500, trials=4, seed=9)
        c = occupancy.monte_carlo_law(LUROTH, n=500, trials=4, seed=10)
        assert a.means == b.means
        assert a.means != c.means

    def test_small_law_agrees_with_expectation(self):
        rep = occupancy.monte_carlo_law(
            LUROTH, n=10_000, trials=30, seed=3, checkpoints=(10_000,)
        )
        exact = rep.exact_expectations[0]
        se = rep.sds[0] * 10_000 ** 0.5 / math.sqrt(30)
        assert abs(rep.mean_final_distinct - exact) < 4 * se

    def test_checkpoint_validation(self):
        with pytest.raises(DomainError):
            occupancy.monte_carlo_law(LUROTH, n=100, trials=2, seed=0, checkpoints=(50, 200))
        with pytest.raises(DomainError):
            occupancy.monte_carlo_law(LUROTH, n=100, trials=2, seed=0, checkpoints=(50, 50))

    def test_checkpoint_order_checked_before_any_draw(self, monkeypatch):
        def no_sampler(model):
            raise AssertionError("a sampler was built before the checkpoints were checked")

        monkeypatch.setattr(occupancy, "DigitSampler", no_sampler)
        with pytest.raises(DomainError, match="increase strictly"):
            occupancy.monte_carlo_law(LUROTH, n=1_000_000, trials=20, seed=0, checkpoints=(1000, 10))

    def test_default_checkpoints_are_dyadic(self):
        rep = occupancy.monte_carlo_law(LUROTH, n=100, trials=2, seed=0)
        assert rep.checkpoints == (2, 4, 8, 16, 32, 64, 100)

    def test_csv_shape(self, tmp_path):
        rep = occupancy.monte_carlo_law(LUROTH, n=64, trials=3, seed=1)
        path = tmp_path / "law.csv"
        assert cli.main(["simulate", "--n", "64", "--trials", "3", "--seed", "1",
                         "--out", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        lines = text.strip().splitlines()
        assert lines[0] == "# seed=1 model=luroth trials=3"
        assert lines[1] == "n,checkpoint,mean,sd,exact_expectation,karlin_constant"
        assert len(lines) == 2 + len(rep.checkpoints)
        assert text.endswith("\n")

    def test_json_fields(self, tmp_path):
        path = tmp_path / "law.json"
        assert cli.main(["simulate", "--n", "64", "--trials", "3", "--seed", "1",
                         "--format", "json", "--out", str(path)]) == 0
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert obj["seed"] == 1
        assert len(obj["means"]) == len(obj["checkpoints"])
        assert obj["karlin_constant"] == pytest.approx(math.sqrt(math.pi))
