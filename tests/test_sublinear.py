"""Forced-digit schedules: profiles, truncation thresholds, sampling, ratios."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifsdigits import occupancy, sublinear, weights
from ifsdigits.errors import (
    DomainError,
    NotAdmissibleError,
    NotInSupportError,
    TiltThresholdError,
)
from ifsdigits.rng import substream

LUROTH = weights.luroth_model()
ROOT = Path(__file__).resolve().parents[1]

# exponent of the two-digit truncation, used as an s(K_n) oracle below
S_2 = 0.6009668516136755


def reference_log_mass(sched, word):
    """Log product-measure mass of the cylinder at ``word``, the oracle for ``ratio_trace``.

    Forced positions contribute factor one after validation; free positions
    contribute ``s_n log p_d``.
    """
    digits = sched._validate(word)
    free = ~sched.forced_time[: digits.size]
    logp = np.log(sched.sorted_weights[digits[free] - 1])
    return float(np.sum(sched.s_of_n[: digits.size][free] * logp))


@pytest.fixture(scope="module")
def sched_1000():
    prof = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 1000})
    return sublinear.build_sublinear_schedule(LUROTH, prof, 0.5)


@pytest.fixture(scope="module")
def sched_400():
    prof = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 400})
    return sublinear.build_sublinear_schedule(LUROTH, prof, 0.5)


@pytest.fixture(scope="module")
def sched_20000():
    prof = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 20000})
    return sublinear.build_sublinear_schedule(LUROTH, prof, 0.5)


def slope_limited_recurrence(g, horizon):
    """The per-n recurrence make_admissible replaced, kept as its reference."""
    values = [0] * (horizon + 1)
    for n in range(1, horizon + 1):
        values[n] = max(min(values[n - 1] + 1, math.floor(float(g(n)))), 0)
    return values


def first_takeover(sched):
    """The first ``n`` with ``isqrt(f(n)) >= K*``, from where ``K_n`` follows ``f``."""
    f = sched.profile.values
    return next(n for n in range(1, sched.horizon + 1) if math.isqrt(int(f[n])) >= sched.k_star)


def profile_outcome(make):
    try:
        return make().values.tolist()
    except (DomainError, NotAdmissibleError) as exc:
        return type(exc).__name__, str(exc)


@given(
    st.integers(min_value=10, max_value=400),
    st.lists(st.floats(min_value=-30, max_value=60, allow_nan=False), min_size=400, max_size=400),
    st.sampled_from(["sorted", "sqrt", "log", "negative-start"]),
)
def test_closed_form_matches_recurrence(horizon, steps, shape):
    steps = sorted(steps)
    g = {
        "sorted": lambda n: steps[n - 1],
        "sqrt": lambda n: math.isqrt(n) + steps[0] / 10,
        "log": lambda n: 3 * math.log(n + 1.0) + steps[0],
        "negative-start": lambda n: n / 3.0 - 25.0,
    }[shape]
    expect = profile_outcome(
        lambda: sublinear.profile_from_table(slope_limited_recurrence(g, horizon), "user")
    )
    gs = np.asarray([g(n) for n in range(1, horizon + 1)], dtype=np.float64)
    assert profile_outcome(lambda: sublinear.make_admissible(gs)) == expect


class TestProfiles:
    def test_sqrt_profile_is_isqrt(self):
        prof = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 5000})
        assert np.array_equal(
            prof.values, [math.isqrt(n) for n in range(5001)]
        )

    def test_sqrt_steps_at_perfect_squares(self):
        prof = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 1024})
        assert list(prof.step_times()) == [k * k for k in range(1, 33)]

    def test_slope_limited_power_profile(self):
        prof = sublinear.make_admissible(5.0 * np.sqrt(np.arange(1, 2001)))
        vals = prof.values
        assert vals[0] == 0
        steps = np.diff(vals)
        assert steps.min() >= 0 and steps.max() <= 1
        # slope limiting keeps f under both envelopes
        for n in (1, 10, 100, 1000, 2000):
            assert vals[n] <= min(n, math.floor(5.0 * math.sqrt(n)))
        assert vals[2000] == math.floor(5.0 * math.sqrt(2000))

    def test_non_finite_generator_rejected(self):
        with pytest.raises(DomainError, match="not finite at n=4"):  # 1e308 * 2 overflows
            sublinear.make_admissible(np.asarray([1e308 * n**0.5 for n in range(1, 101)]))
        with pytest.raises(DomainError, match="not finite at n=1"):
            sublinear.make_admissible(np.full(100, math.nan))

    def test_first_decrease_named(self):
        with pytest.raises(DomainError, match="decreases at n=7"):
            sublinear.make_admissible(np.asarray([1, 2, 3, 4, 5, 6, 0] + [-5] * 93))

    def test_linear_rate_fails_decay_clause(self):
        with pytest.raises(NotAdmissibleError, match="decay clause"):
            sublinear.make_admissible(np.arange(1, 4001) / 2.0)

    def test_start_clause(self):
        with pytest.raises(NotAdmissibleError, match="start clause"):
            sublinear.profile_from_table([1] + list(range(1, 12)))

    def test_increment_clause(self):
        table = [0, 1, 3, 3, 3, 4, 4, 5, 5, 5, 6, 6]
        with pytest.raises(NotAdmissibleError, match="increment clause"):
            sublinear.profile_from_table(table)

    def test_growth_clause(self):
        with pytest.raises(NotAdmissibleError, match="growth clause"):
            sublinear.profile_from_table([0] * 12)

    def test_short_horizon_proxy_is_strict(self):
        # the decay proxy runs over the declared horizon's last decade, so an
        # honest slow profile on a tiny horizon is rejected rather than guessed at
        with pytest.raises(NotAdmissibleError, match="decay clause"):
            sublinear.profile_from_spec({"kind": "sqrt", "horizon": 80})

    def test_table_roundtrip(self):
        table = [math.isqrt(n) for n in range(201)]
        prof = sublinear.profile_from_table(table)
        assert prof.horizon == 200
        assert prof.values.tolist() == table
        assert prof.provenance == "user-table"

    def test_spec_wire_validation(self):
        with pytest.raises(DomainError):
            sublinear.profile_from_spec({"horizon": 100})
        with pytest.raises(DomainError):
            sublinear.profile_from_spec({"kind": "nope", "horizon": 100})
        with pytest.raises(DomainError):
            sublinear.profile_from_spec({"kind": "power", "beta": 1.5, "horizon": 100})
        with pytest.raises(DomainError):
            sublinear.profile_from_spec({"kind": "sqrt", "horizon": 5})
        log_prof = sublinear.profile_from_spec({"kind": "log", "horizon": 200})
        assert log_prof.values[200] == math.floor(math.log(201.0))

    @pytest.mark.parametrize("kind, g", [
        ("sqrt", math.isqrt),
        ("log", lambda n: math.log(n + 1.0)),
    ])
    def test_builtin_profile_matches_per_position_reference(self, kind, g):
        # the built-in kinds evaluate g with numpy; over the whole horizon limit
        # their profile is the one the scalar math functions give
        H = sublinear._MAX_WORD_LENGTH
        reference = np.fromiter((g(n) for n in range(1, H + 1)), dtype=np.float64, count=H)
        prof = sublinear.profile_from_spec({"kind": kind, "horizon": H})
        assert np.array_equal(prof.values, sublinear.make_admissible(reference).values)

    @pytest.mark.parametrize("beta", [1 / 3, 0.25, 0.5, 0.7])
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_power_profile_uses_python_float_power(self, beta, c):
        # numpy's array power gives 27 ** (1/3) = 2.9999999999999996, which
        # would floor f(27) one below Python's 3.0 at beta = 1/3
        prof = sublinear.profile_from_spec({"kind": "power", "beta": beta, "c": c, "horizon": 2000})
        assert prof.values.tolist() == slope_limited_recurrence(lambda n: c * n**beta, 2000)
        if beta == 1 / 3:
            assert prof.values[27] == 3 * c

    def test_horizon_guards(self, monkeypatch):
        with pytest.raises(DomainError, match="cover n = 0..10"):
            sublinear.make_admissible(np.arange(1.0, 10.0))
        monkeypatch.setattr(sublinear, "_MAX_WORD_LENGTH", 100)
        assert sublinear.profile_from_spec({"kind": "log", "horizon": 100}).horizon == 100
        for kind in ("sqrt", "log", "power"):
            with pytest.raises(DomainError, match="exceeds the limit of 100"):
                sublinear.profile_from_spec({"kind": kind, "beta": 0.5, "horizon": 101})

    def test_values_are_frozen(self):
        prof = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 200})
        with pytest.raises(ValueError):
            prof.values[3] = 7


class TestThresholdIndex:
    def test_frozen_values(self):
        assert sublinear.threshold_index(LUROTH, 0.5) == 3
        assert sublinear.threshold_index(LUROTH, 0.9) == 12

    def test_matches_linear_scan(self):
        for t in (0.1, 0.5, 0.7, 0.9):
            target = 0.5 * (1.0 + t)
            K = 1
            while weights.partial_sum_exponent(LUROTH, K) < target:
                K += 1
            assert sublinear.threshold_index(LUROTH, t) == K

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                sublinear.threshold_index(LUROTH, bad)

    def test_cap_guard(self):
        with pytest.raises(TiltThresholdError):
            sublinear.threshold_index(LUROTH, 0.5, cap=2)


class TestScheduleStructure:
    def test_truncation_rule(self, sched_1000):
        f = sched_1000.profile.values
        for n in (1, 10, 81, 100, 500, 1000):
            assert sched_1000.K[n - 1] == max(
                sched_1000.k_star, math.isqrt(int(f[n]))
            )

    def test_first_takeover_time(self, sched_1000):
        # isqrt(f(n)) first reaches K* = 3 at n = 81
        assert first_takeover(sched_1000) == 81
        assert math.isqrt(int(sched_1000.profile.values[81])) == 3
        assert math.isqrt(int(sched_1000.profile.values[80])) == 2

    def test_forced_digits(self, sched_1000):
        forced_pos = np.nonzero(sched_1000.forced_time)[0]
        assert np.array_equal(forced_pos + 1, sched_1000.profile.step_times())
        f = sched_1000.profile.values
        for i in forced_pos:
            n = int(i) + 1
            assert sched_1000.forced_digit[i] == sched_1000.K[i] + f[n]
        # the hundredth position is a step time with truncation 3, height 10
        assert sched_1000.forced_digit[99] == 13

    def test_pools_disjoint(self, sched_1000):
        forced_pos = np.nonzero(sched_1000.forced_time)[0]
        vals = sched_1000.forced_digit[forced_pos]
        assert np.all(np.diff(vals) > 0)
        # each forced digit beats every free digit available before or at it
        for i, b in zip(forced_pos, vals):
            assert b > sched_1000.K[: int(i) + 1].max()

    def test_pool_height_bound_past_takeover(self, sched_1000):
        f = sched_1000.profile.values
        n_t = first_takeover(sched_1000)
        for i in np.nonzero(sched_1000.forced_time)[0]:
            n = int(i) + 1
            if n >= n_t:
                assert sched_1000.forced_digit[i] <= 2 * f[n]

    def test_exponents_solve_partial_sums(self, sched_1000):
        for n in (1, 200, 1000):
            K = int(sched_1000.K[n - 1])
            s = float(sched_1000.s_of_n[n - 1])
            total = float(np.sum(sched_1000.sorted_weights[:K] ** s))
            assert total == pytest.approx(1.0, abs=1e-12)
            assert s >= 0.5 * (1.0 + sched_1000.t) - 1e-12

    def test_small_target_hits_two_digit_exponent(self):
        prof = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 200})
        sched = sublinear.build_sublinear_schedule(LUROTH, prof, 0.1)
        assert sched.k_star == 2
        assert float(sched.s_of_n[0]) == pytest.approx(S_2, abs=1e-12)

    def test_luroth_needs_no_relabeling(self, sched_1000):
        assert sched_1000.label_permutation is None
        word = np.asarray([1, 2, 3], dtype=np.int64)
        assert sched_1000.to_model_digits(word) is word  # no copy

    def test_nonmonotone_model_gets_permutation(self):
        # this tail rises before it falls, so sorted labels permute the digits
        m = weights.power_log_model(1.5, 3.0)
        raw = weights.weights_range(m, 1, 9)
        assert np.argmax(raw) == 3  # model digit 4 carries the largest weight
        prof = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 1024})
        sched = sublinear.build_sublinear_schedule(m, prof, 0.5)
        perm = sched.label_permutation
        assert perm is not None
        assert np.all(np.diff(sched.sorted_weights) <= 0.0)
        assert perm[0] == 4
        for label in (1, 2, 3, 10):
            assert weights.weight(m, int(perm[label - 1])) == pytest.approx(
                float(sched.sorted_weights[label - 1]), rel=1e-12
            )
        word = sched.sample_word(64, substream(0, 0x50B))
        assert np.array_equal(
            sched.to_model_digits(word), perm[word - 1]
        )


# Hand-built profiles that bypass make_admissible, each breaking one schedule invariant.
BROKEN_PROFILES = [
    # isqrt(f) falls from 10 to 0
    (list(range(101)) + [0] * 20, "truncation bounds must be nondecreasing"),
    # f steps up to 2 twice
    ([0, 1, 2, 1, 2] + [2] * 20, "forced digits must strictly increase"),
]
SCHEDULE_INVARIANT_PROBE = """
import numpy as np
from ifsdigits import sublinear, weights
from ifsdigits.errors import NotAdmissibleError
values = np.asarray(%r, dtype=np.int64)
prof = sublinear.AdmissibleProfile(values=values, provenance="hand")
try:
    sublinear.build_sublinear_schedule(weights.luroth_model(), prof, 0.5)
except NotAdmissibleError as exc:
    print(exc)
"""


def test_float_sqrt_floor_is_exact_to_word_limit():
    # build_sublinear_schedule floors np.sqrt(f) for f up to the horizon limit
    v = np.arange(sublinear._MAX_WORD_LENGTH + 1, dtype=np.int64)
    r = np.sqrt(v).astype(np.int64)
    assert np.all(r * r <= v) and np.all((r + 1) * (r + 1) > v)


def test_truncation_is_integer_root(sched_20000):
    f = sched_20000.profile.values[1:]
    want = [max(sched_20000.k_star, math.isqrt(int(v))) for v in f]
    assert sched_20000.K.tolist() == want


class TestScheduleInvariants:
    @pytest.mark.parametrize("values,message", BROKEN_PROFILES)
    def test_hand_built_profile_rejected(self, values, message):
        prof = sublinear.AdmissibleProfile(values=np.asarray(values, dtype=np.int64), provenance="hand")
        with pytest.raises(NotAdmissibleError, match=message):
            sublinear.build_sublinear_schedule(LUROTH, prof, 0.5)

    @pytest.mark.parametrize("values,message", BROKEN_PROFILES)
    def test_checked_under_optimize_flag(self, values, message):
        # ``python -O`` strips assert statements; these checks must survive it
        out = subprocess.run(
            [sys.executable, "-O", "-c", SCHEDULE_INVARIANT_PROBE % (values,)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert message in out.stdout


class TestSampling:
    def test_sandwich_holds_exactly(self, sched_1000):
        for seed in range(4):
            word = sched_1000.sample_word(1000, substream(seed, 0x50B))
            assert sched_1000.sandwich_violations(word) == []
            counts = occupancy.distinct_counts(word)
            f = sched_1000.profile.values[1:1001]
            assert np.all(f <= counts)
            assert np.all(counts <= f + sched_1000.K)

    def test_sandwich_catches_flat_word(self, sched_1000):
        flat = np.ones(100, dtype=np.int64)
        bad = sched_1000.sandwich_violations(flat)
        assert bad and bad[0] == 4  # first time the floor passes 1

    def test_first_digit_is_forced(self, sched_1000):
        word = sched_1000.sample_word(1, substream(0, 0x50B))
        assert list(word) == [sched_1000.k_star + 1]

    def test_forced_positions_filled(self, sched_1000):
        word = sched_1000.sample_word(1000, substream(9, 0x50B))
        forced = sched_1000.forced_time
        assert np.array_equal(word[forced], sched_1000.forced_digit[forced])
        free = word[~forced]
        assert np.all(free <= sched_1000.K[~forced])

    def test_reproducible(self, sched_1000):
        a = sched_1000.sample_word(500, substream(3, 0x50B))
        b = sched_1000.sample_word(500, substream(3, 0x50B))
        assert np.array_equal(a, b)

    def test_horizon_guard(self, sched_1000):
        with pytest.raises(DomainError):
            sched_1000.sample_word(1001, substream(0, 0))

    def test_top_uniform_stays_in_alphabet(self):
        # Rounding leaves some free-digit CDFs ending a hair below 1, at or
        # under the largest uniform a Generator returns, 1 - 2**-53.
        class TopGenerator:
            def random(self, size):
                return np.full(size, 1.0 - 2.0**-53)

        prof = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 5000})
        sched = sublinear.build_sublinear_schedule(LUROTH, prof, 0.5)
        ks = np.unique(sched.K)
        top = [
            np.cumsum(sched.sorted_weights[:k] ** sched.s_of_n[np.searchsorted(sched.K, k)])[-1]
            for k in ks
        ]
        assert any(c <= 1.0 - 2.0**-53 for c in top)
        word = sched.sample_word(5000, TopGenerator())
        free = ~sched.forced_time
        assert np.array_equal(word[free], sched.K[free])
        sched.ratio_trace(word)  # in support

    def test_free_marginals(self):
        # sqrt keeps the truncation pinned at K* = 3 through n = 200
        prof = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 200})
        sched = sublinear.build_sublinear_schedule(LUROTH, prof, 0.5)
        assert int(sched.K.max()) == 3
        s = float(sched.s_of_n[0])
        expect = weights.weights_range(LUROTH, 1, 4) ** s
        rng = substream(11, 0x50B)
        draws = np.concatenate(
            [sched.sample_word(200, rng)[~sched.forced_time] for _ in range(150)]
        )
        n = draws.size
        for d in (1, 2, 3):
            freq = float(np.mean(draws == d))
            se = math.sqrt(expect[d - 1] * (1.0 - expect[d - 1]) / n)
            assert abs(freq - expect[d - 1]) < 4.5 * se


class TestMeasure:
    def test_log_mass_recomputed(self, sched_400):
        word = sched_400.sample_word(200, substream(5, 0x50B))
        total = 0.0
        for i, d in enumerate(word):
            if sched_400.forced_time[i]:
                continue
            total += float(sched_400.s_of_n[i]) * math.log(
                float(sched_400.sorted_weights[int(d) - 1])
            )
        assert reference_log_mass(sched_400, word) == pytest.approx(total, rel=1e-12)

    def test_empty_and_forced_spine(self, sched_400):
        assert reference_log_mass(sched_400, np.zeros(0, dtype=np.int64)) == 0.0
        # position 1 is forced, so the one-digit spine carries full mass
        spine = np.asarray([sched_400.k_star + 1], dtype=np.int64)
        assert reference_log_mass(sched_400, spine) == 0.0

    def test_additivity_free_time(self, sched_400):
        word = sched_400.sample_word(10, substream(6, 0x50B))
        # position 11 is free (10 and 16 are the nearby step times)
        assert not sched_400.forced_time[10]
        base = math.exp(reference_log_mass(sched_400, word))
        K = int(sched_400.K[10])
        total = sum(
            math.exp(reference_log_mass(sched_400, np.concatenate([word, [d]])))
            for d in range(1, K + 1)
        )
        assert total == pytest.approx(base, rel=1e-12)

    def test_additivity_forced_time(self, sched_400):
        word = sched_400.sample_word(8, substream(6, 0x50B))
        assert sched_400.forced_time[8]  # position 9 is a step time
        ext = np.concatenate([word, [sched_400.forced_digit[8]]])
        assert reference_log_mass(sched_400, ext) == pytest.approx(
            reference_log_mass(sched_400, word), rel=1e-12
        )

    def test_support_guards(self, sched_400):
        word = sched_400.sample_word(20, substream(7, 0x50B))
        wrong = word.copy()
        wrong[8] = 1  # overwrite the forced digit at position 9
        with pytest.raises(NotInSupportError):
            sched_400.ratio_trace(wrong)
        big = word.copy()
        big[1] = int(sched_400.K[1]) + 50
        with pytest.raises(NotInSupportError):
            sched_400.ratio_trace(big)
        with pytest.raises(DomainError):
            sched_400.ratio_trace(np.ones(401, dtype=np.int64))


class TestRatioTrace:
    def test_parts_sum_and_signs(self, sched_20000):
        word = sched_20000.sample_word(2000, substream(1, 0x50B, 1))
        tr = sched_20000.ratio_trace(word)
        assert np.allclose(tr.log_ratio, tr.free_part + tr.forced_part, atol=1e-9)
        assert np.all(np.diff(tr.free_part) <= 1e-12)  # free steps push down
        assert np.all(np.diff(tr.forced_part) >= -1e-12)  # forced jumps push up

    def test_forced_part_recomputed(self, sched_20000):
        word = sched_20000.sample_word(2000, substream(2, 0x50B, 1))
        tr = sched_20000.ratio_trace(word)
        idx = np.nonzero(sched_20000.forced_time[:2000])[0]
        expect = -sched_20000.t * np.sum(
            np.log(sched_20000.sorted_weights[sched_20000.forced_digit[idx] - 1])
        )
        assert tr.forced_part[-1] == pytest.approx(float(expect), rel=1e-12)

    def test_endpoint_identity(self, sched_20000):
        word = sched_20000.sample_word(1500, substream(3, 0x50B, 1))
        tr = sched_20000.ratio_trace(word)
        log_diam = float(np.sum(np.log(sched_20000.sorted_weights[word - 1])))
        expect = reference_log_mass(sched_20000, word) - sched_20000.t * log_diam
        assert tr.log_ratio[-1] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("t", [0.5, 0.9])
    def test_signed_maximum_decays(self, t):
        prof = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 20000})
        sched = sublinear.build_sublinear_schedule(LUROTH, prof, t)
        for seed in range(3):
            word = sched.sample_word(20000, substream(seed, 0x50B, 1))
            tr = sched.ratio_trace(word)
            early = float(tr.log_ratio[:2000].max())
            late = float(tr.log_ratio[10000:].max())
            assert late < early
            assert late < 0.0


PROF_200 = sublinear.profile_from_spec({"kind": "sqrt", "horizon": 200})
SCHED_200 = sublinear.build_sublinear_schedule(LUROTH, PROF_200, 0.5)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sampled_words_always_sandwiched(seed):
    word = SCHED_200.sample_word(120, substream(seed, 0x50B, 2))
    assert SCHED_200.sandwich_violations(word) == []
    SCHED_200.ratio_trace(word)  # sampled words are always in support
