"""Distinct-digit counting, exact expectations, and the occupancy growth law."""

import json
import math
import tracemalloc

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


def reference_expected_distinct_at(model, ns):
    """The whole-chunk loop that ``_expected_distinct_at`` ran before it summed each
    chunk a block at a time: one ``weights_range`` and one ``np.sum`` per chunk."""
    totals = [1.0 if n == 1 else 0.0 for n in ns]
    ends = [1 if n == 1 else 0 for n in ns]
    lo = 1
    chunk = 1 << 14
    while not all(ends):
        hi = lo + chunk
        log_q = weights.weights_range(model, lo, hi)
        p_last = float(log_q[-1])
        np.log1p(np.negative(log_q, out=log_q), out=log_q)
        terms = np.empty_like(log_q)
        for i, n in enumerate(ns):
            if not ends[i]:
                np.expm1(np.multiply(log_q, n, out=terms), out=terms)
                np.negative(terms, out=terms)
                totals[i] += float(terms.sum())
                if terms[-1] < 1e-12 * totals[i] or n * p_last < 1e-6:
                    ends[i] = hi
        lo = hi
        chunk = min(chunk * 2, 1 << 22)
    for i, (n, end) in enumerate(zip(ns, ends)):
        if n > 1:
            t1 = weights.tail_sum(model, end)
            t2 = weights.tilted_tail_sum(model, end, 2.0)
            totals[i] += max(n * t1 - 0.5 * n * (n - 1) * t2, 0.0)
    return totals


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

    @pytest.mark.parametrize("word", [
        [1.5, 1.7, 2.2],
        [3.0, 2.5],
        [1.0, np.nan],
        [1.0, np.inf],
        [1e30],
        ["3"],
    ])
    def test_non_integral_digit_rejected(self, word):
        # the float word [1.5, 1.7, 2.2] once counted as [1, 1, 2]
        with pytest.raises(DomainError, match="integer"):
            occupancy.distinct_counts(word)

    def test_integral_floats_and_objects_count(self):
        expect = [1, 2, 2, 3]
        assert occupancy.distinct_counts([4.0, 2.0, 4.0, 65537.0]).tolist() == expect
        assert occupancy.distinct_counts(np.asarray([4, 2, 4, 2**62], dtype=object)).tolist() \
            == expect

    @pytest.mark.parametrize("top", [65537, 150_000, 200_000, 200_001, 2**40])
    def test_table_sized_to_the_word(self, top):
        # digits past the 2**16 least table: dense up to n slots, records beyond
        word = substream(13, top).integers(1, top + 1, size=200_000)
        word[-1] = top
        assert np.array_equal(occupancy.distinct_counts(word), reference_distinct_counts(word))


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

    @pytest.mark.parametrize("gamma", [-0.5, -0.9])
    def test_power_log_tilt_below_minus_one(self, gamma):
        # the remainder takes a tilted tail at s = 2, whose log exponent 2 gamma <= -1;
        # reference: a 2e6-term direct sum plus n * tail, off by under 1e-14
        m = weights.power_log_model(2.0, gamma)
        p = weights.weights_range(m, 1, 2_000_001)
        for n in (10, 1000):
            ref = math.fsum(-np.expm1(n * np.log1p(-p))) + n * weights.tail_sum(m, 2_000_001)
            assert occupancy.expected_distinct(m, n) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_unit_first_weight(self):
        # p_1 of power(60) rounds to 1, so log1p(-p_1) = -inf and the first term is
        # exactly 1; that log1p once warned of a divide by zero
        assert weights.weight(weights.power_model(60.0), 1) == 1.0
        assert occupancy.expected_distinct(weights.power_model(60.0), 10) == 1.0

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

    @pytest.mark.parametrize("model, cps", [
        (LUROTH, (1, 2, 100, 4096, 20_000, 10**6)),
        (LUROTH, occupancy._default_checkpoints(10**6)),
        (weights.power_model(1.3), (2, 100, 1900, 3900, 5500, 10**4)),
        (weights.power_model(1.5), (*occupancy._default_checkpoints(10**4), 6700)),
        (weights.power_model(3.0), occupancy._default_checkpoints(10**6)),
        (weights.power_log_model(2.0, 1.5), (1, 3, 1000, 10**6)),
        (weights.explicit_prefix_model((0.4, 0.2), rho=2.5), (2, 4096, 10**6)),
    ], ids=["luroth", "luroth-doubling", "power-1.3", "power-1.5", "power-3", "power-log",
            "explicit-prefix"])
    def test_blocks_sum_as_whole_chunks(self, model, cps):
        # a chunk summed _SAMPLE_BLOCK weights at a time gives the whole chunk's bits.
        # A chunk's rounding mostly vanishes into the total, but at n = 1900, 3900 and
        # 5500 on power(1.3) and 6700 on power(1.5) adding the block sums in sequence,
        # not as a pairwise tree, gives other bits
        assert occupancy._expected_distinct_at(model, cps) == reference_expected_distinct_at(model, cps)

    @pytest.mark.parametrize("size", [1 << e for e in range(17, 23)])
    def test_numpy_sums_pairwise_over_blocks(self, size):
        # _expected_distinct_at relies on np.sum of a contiguous float64 array being
        # the pairwise tree of its 2**16-entry block sums; a numpy that sums in
        # another order fails here instead of moving the simulate digest
        block = weights._SAMPLE_BLOCK
        x = np.random.default_rng(size).random(size) ** 30
        sums = [float(x[i : i + block].sum()) for i in range(0, size, block)]
        while len(sums) > 1:  # ((s0 + s1) + (s2 + s3)) + ...
            sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
        assert float(x.sum()) == sums[0]

    def test_peak_is_block_sized(self):
        # blocks of 2**16 weights: about 2 MiB; whole chunks of 2**22 took 64 MiB
        tracemalloc.start()
        try:
            occupancy._expected_distinct_at(weights.power_model(1.3), (10**5,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


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
    @pytest.mark.parametrize("model, n, checkpoints", [
        (LUROTH, 2000, (500, 1000, 2000)),
        # trials span block edges; power(1.5) also draws digits past the dense table
        (LUROTH, 2 * weights._SAMPLE_BLOCK + 3, (65_536, 65_537, 131_075)),
        (weights.power_model(1.5), 2 * weights._SAMPLE_BLOCK + 3, (65_536, 65_537, 131_075)),
    ], ids=["luroth-2000", "luroth-blocks", "power-1.5-blocks"])
    def test_thread_count_does_not_change_results(self, model, n, checkpoints):
        kw = dict(n=n, trials=8, checkpoints=checkpoints, seed=5)
        report = occupancy.monte_carlo_law(model, threads=1, **kw)
        assert occupancy.monte_carlo_law(model, threads=2, **kw) == report
        assert occupancy.monte_carlo_law(model, threads=4, **kw) == report

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

    @pytest.mark.parametrize("n", [
        weights._SAMPLE_BLOCK - 1,
        weights._SAMPLE_BLOCK,
        weights._SAMPLE_BLOCK + 1,
        3 * weights._SAMPLE_BLOCK + 5,
    ])
    def test_blocks_match_reference_loop(self, n):
        # checkpoints on either side of every block edge the word reaches
        block = weights._SAMPLE_BLOCK
        edges = [e + d for e in range(block, n + 1, block) for d in (-1, 0, 1)]
        cps = tuple(sorted({1, 2, *(c for c in edges if 1 <= c <= n), n}))
        ref = reference_trial_counts(LUROTH, n, 2, 5, cps)
        rep = occupancy.monte_carlo_law(LUROTH, n, 2, 5, checkpoints=cps)
        ratios = ref / np.asarray(cps) ** 0.5
        assert rep.means == tuple(float(v) for v in ratios.mean(axis=0))
        assert rep.sds == tuple(float(v) for v in ratios.std(axis=0, ddof=1))
        assert rep.mean_final_distinct == float(ref[:, -1].mean())

    @pytest.mark.parametrize("model", [
        LUROTH,
        weights.power_model(1.1),  # many draws past the dense and the sampler table
        weights.power_log_model(2.0, 1.5),
        weights.explicit_prefix_model([1e-9, 0.5], 2.0),  # digit 1 unseen: nothing is skipped
    ], ids=["luroth", "power-1.1", "power-log", "rare-first-digit"])
    @pytest.mark.parametrize("n", [weights._SAMPLE_BLOCK - 1, weights._SAMPLE_BLOCK + 1,
                                   3 * weights._SAMPLE_BLOCK + 5])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_skipped_draws_keep_the_counts(self, monkeypatch, model, n, threads):
        # the exact expectations of power(1.1) take seconds, and only the counts are compared
        monkeypatch.setattr(occupancy, "_expected_distinct_at", lambda model, ns: [0.0] * len(ns))
        block = weights._SAMPLE_BLOCK
        cps = tuple(sorted(c for c in {1, 2, 1000, block - 1, block + 1, 2 * block, n} if c <= n))
        ref = reference_trial_counts(model, n, 2, 17, cps)
        rep = occupancy.monte_carlo_law(model, n, 2, 17, checkpoints=cps, threads=threads)
        ratios = ref / np.asarray(cps) ** (1.0 / model.rho)
        assert rep.means == tuple(float(v) for v in ratios.mean(axis=0))
        assert rep.sds == tuple(float(v) for v in ratios.std(axis=0, ddof=1))
        assert rep.mean_final_distinct == float(ref[:, -1].mean())

    def test_labels_few_draws(self, monkeypatch):
        # a Lüroth word of 2^20 draws shows all digits up to about 140 within its
        # first block, and later draws rarely pass them: only those are labelled
        n = 1 << 20
        sizes, labelled = [], []

        class Stream:
            def __init__(self, rng):
                self.rng = rng

            def random(self, size=None, out=None):
                sizes.append(size if out is None else out.size)
                return self.rng.random(size, out=out)

        invert = weights.DigitSampler.invert

        def counted(self, u):
            labelled.append(u.size)
            return invert(self, u)

        monkeypatch.setattr(occupancy, "substream", lambda *path: Stream(substream(*path)))
        monkeypatch.setattr(weights.DigitSampler, "invert", counted)
        rep = occupancy.monte_carlo_law(LUROTH, n, 1, 3, checkpoints=(n,))
        assert sizes == [weights._SAMPLE_BLOCK] * (n // weights._SAMPLE_BLOCK)
        assert labelled[0] == weights._SAMPLE_BLOCK  # nothing is seen before the first block
        assert sum(labelled) <= 0.1 * n
        assert rep.mean_final_distinct == float(reference_trial_counts(LUROTH, n, 1, 3, (n,))[0, 0])

    def test_uniform_at_the_threshold_is_labelled(self, monkeypatch):
        # block 0 draws digits 1..5, each from the least uniform that reaches it;
        # block 1 draws digit 6 from exactly c_5, which must not be skipped
        block = weights._SAMPLE_BLOCK
        sampler = weights.DigitSampler(LUROTH)
        c = [sampler.threshold(k) for k in range(6)]

        class Stream:
            def random(self, size=None, out=None):
                out = np.empty(size) if out is None else out
                out[:] = np.resize(c[:5], block) if out.size == block else c[5]
                return out

        monkeypatch.setattr(occupancy, "substream", lambda *path: Stream())
        rep = occupancy.monte_carlo_law(LUROTH, block + 1, 1, 0, checkpoints=(block, block + 1))
        assert rep.mean_final_distinct == 6.0

    def test_every_dense_digit_seen(self, monkeypatch):
        # 2^16 equal prefix weights: every digit of the dense table is seen within
        # the word, after which only the draws past the table are labelled
        monkeypatch.setattr(occupancy, "_expected_distinct_at", lambda model, ns: [0.0] * len(ns))
        model = weights.explicit_prefix_model([0.9 / occupancy._DENSE] * occupancy._DENSE, 2.0)
        n, block = 1 << 20, weights._SAMPLE_BLOCK
        word = weights.DigitSampler(model).sample(substream(2, 0), n)
        assert np.isin(np.arange(1, occupancy._DENSE + 1), word[: n - block]).all()
        cps = (n - block, n)
        rep = occupancy.monte_carlo_law(model, n, 1, 2, checkpoints=cps)
        assert rep.means == tuple(float(v) for v in reference_trial_counts(model, n, 1, 2, cps)[0]
                                  / np.asarray(cps) ** 0.5)

    def test_records_past_the_table_span_blocks(self):
        model, n, trials, seed = weights.power_model(1.5), 3 * weights._SAMPLE_BLOCK + 5, 3, 6
        block = weights._SAMPLE_BLOCK
        word = weights.DigitSampler(model).sample(substream(seed, 0), n)
        # some digit past the dense table is first drawn in one block and again in a later one
        big = np.flatnonzero(word > occupancy._DENSE)
        first = np.unique(word[big], return_index=True)[1]
        last = np.unique(word[big][::-1], return_index=True)[1]
        assert (big[first] // block < big[big.size - 1 - last] // block).any()
        cps = (block, block + 1, 2 * block, 3 * block, n)
        ref = reference_trial_counts(model, n, trials, seed, cps)
        rep = occupancy.monte_carlo_law(model, n, trials, seed, checkpoints=cps)
        ratios = ref / np.asarray(cps) ** (1.0 / 1.5)
        assert rep.means == tuple(float(v) for v in ratios.mean(axis=0))
        assert rep.mean_final_distinct == float(ref[:, -1].mean())

    def test_deep_digit_shared_across_blocks(self):
        # power(1.5) at seed 14 draws digit 3353291, past the 2**20-entry
        # sampler table, at positions 931079 and 1026172: blocks 14 and 15.
        # Labels taken per block would count it twice.
        model, n, seed = weights.power_model(1.5), 1 << 20, 14
        sampler = weights.DigitSampler(model)
        word = sampler.invert(substream(seed, 0).random(n))
        deep = np.flatnonzero(word < 0)
        word[deep] = [weights._invert_tail(model, 1.0, float(r), sampler._table_size)
                      for r in np.negative(word[deep]).view(np.float64)]
        shared = np.flatnonzero(word == 3353291)
        assert shared.tolist() == [931079, 1026172]
        assert (shared // weights._SAMPLE_BLOCK).tolist() == [14, 15]
        cps = (931_079, 931_080, 1_026_172, 1_026_173, n)
        first = np.sort(np.unique(word, return_index=True)[1])
        want = np.searchsorted(first, cps, side="left")
        rep = occupancy.monte_carlo_law(model, n, 1, seed, checkpoints=cps)
        assert rep.means == tuple(float(v) for v in want / np.asarray(cps) ** (1.0 / 1.5))

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
