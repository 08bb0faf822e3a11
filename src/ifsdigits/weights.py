"""Digit-weight models with regularly varying tails.

A weight model is a probability sequence ``p_1, p_2, ...`` over the positive
integers together with a declared tail index ``rho`` and a closed-form slowly
varying factor ``L`` such that ``p_k = k**-rho * L(k)`` holds exactly beyond
any explicit prefix.  Built-in families:

* ``luroth``          -- ``p_k = 1/(k(k+1))``, ``rho = 2``, ``L(k) = k/(k+1)``
* ``power``           -- ``p_k = k**-rho / zeta(rho)``: ``power-log`` at ``gamma = 0``
* ``power-log``       -- ``p_k`` proportional to ``k**-rho * log(k+1)**gamma``
* ``explicit-prefix`` -- finitely many explicit weights, power tail beyond

All but ``luroth`` are one family: an explicit head (empty for ``power`` and
``power-log``) followed by the normalized tail ``k**-rho * log(k+1)**gamma / D``,
where ``D`` makes the tail carry the mass the head leaves.  Since the
occupancy and dimension laws see the tail alone, a finite head changes no
law; :class:`WeightModel` states which fields each kind fixes.

This module owns every scalar quantity derived from the weights: tail sums,
tilted tail sums ``sum_{k>=M} p_k**s``, the exponent at which a truncated
s-power sum equals one, empirical dyadic-ratio (Potter-type) constants, and
inverse-CDF digit sampling.

Every power-type tail is ``sum_{k>=M} k**-q * log(k+1)**g`` (Hurwitz zeta at
``g = 0``), summed by one solver: an explicit head plus an Euler-Maclaurin
remainder whose integral is a short series of ``Gamma(a, x)`` values from the
private :func:`_upper_gamma`.  Tails stay better than 1e-10 relative, with numpy alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DivergenceError,
    DomainError,
    HorizonExceededError,
    PrecisionError,
    TiltThresholdError,
)

__all__ = [
    "WeightModel",
    "PotterReport",
    "luroth_model",
    "power_model",
    "power_log_model",
    "explicit_prefix_model",
    "model_from_spec",
    "model_to_spec",
    "weight",
    "weights_range",
    "slowly_varying",
    "tail_sum",
    "tilted_tail_sum",
    "partial_sum_exponent",
    "exponent_root",
    "potter_scan",
    "verify_potter_report",
    "DigitSampler",
]

_KINDS = ("luroth", "power", "power-log", "explicit-prefix")

# Explicit-head length before switching to the integral remainder.  Beyond
# this index the Euler-Maclaurin correction error is below 1e-12 relative
# for every exponent the library accepts.
_EM_CUT = 8192

# Longest word a command may draw at once.  Drawing and counting a word keeps
# about 40 bytes per digit live in each worker, so this is about 670 MB.
_MAX_DRAWS = 1 << 24


@dataclass(frozen=True)
class WeightModel:
    """Immutable description of a digit-weight sequence.

    ``prefix`` holds ``p_1..p_m``; for ``k > m`` a non-luroth model has
    ``p_k = k**-rho * log(k+1)**gamma / _norm``.  Each kind fixes fields:
    ``luroth`` has ``rho = 2``, ``gamma = 0`` and no prefix; ``power`` has
    ``gamma = 0`` and no prefix; ``power-log`` has no prefix;
    ``explicit-prefix`` has ``gamma = 0`` and a nonempty prefix of finite
    positive weights that sums to less than 1.
    """

    kind: str
    rho: float
    gamma: float = 0.0
    prefix: tuple[float, ...] = ()
    # Tail divisor D = sum_{k>m} k**-rho * log(k+1)**gamma / (1 - sum(prefix)),
    # so that the tail carries the mass the prefix leaves: zeta(rho) for
    # power.  Unused by luroth.  Computed once at construction.
    _norm: float = field(default=1.0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"unknown weight-model kind {self.kind!r}")
        if not (math.isfinite(self.rho) and math.isfinite(self.gamma)):
            raise DomainError("rho and gamma must be finite")
        if self.kind == "luroth" and self.rho != 2.0:
            raise DomainError("luroth weights have tail index 2")
        if not self.rho > 1.0:
            raise DomainError("power-type weights need rho > 1")
        if self.gamma != 0.0 and self.kind != "power-log":
            raise DomainError(f"{self.kind} weights have gamma = 0; use power-log")
        if self.kind != "explicit-prefix":
            if self.prefix:
                raise DomainError(f"{self.kind} weights have no prefix; use explicit-prefix")
        elif not self.prefix:
            raise DomainError("explicit-prefix needs at least one entry")
        elif not all(0.0 < q < math.inf for q in self.prefix):
            raise DomainError("prefix weights must be positive and finite")
        elif sum(self.prefix) >= 1.0:
            raise DomainError("prefix weights must sum to less than 1")
        if self.kind != "luroth":
            tail = _powerlog_raw_tail(len(self.prefix) + 1, self.rho, self.gamma)
            norm = tail / (1.0 - sum(self.prefix))
            if not sys.float_info.min <= norm < math.inf:
                raise PrecisionError(
                    f"{self.describe()} has tail divisor {norm!r}, not a positive normal "
                    f"float: its weights past digit {len(self.prefix)} are out of float range"
                )
            object.__setattr__(self, "_norm", norm)

    # -- descriptive helpers -------------------------------------------------

    @property
    def power_constant(self) -> float | None:
        """The constant ``C = lim_k p_k * k**rho`` when the limit exists."""
        if self.kind == "luroth":
            return 1.0
        return 1.0 / self._norm if self.gamma == 0.0 else None

    def describe(self) -> str:
        if self.kind == "power":
            return f"power(rho={self.rho:g})"
        if self.kind == "power-log":
            return f"power-log(rho={self.rho:g}, gamma={self.gamma:g})"
        if self.kind == "explicit-prefix":
            return f"explicit-prefix({len(self.prefix)} entries, rho={self.rho:g})"
        return "luroth"


# -- constructors -----------------------------------------------------------


def luroth_model() -> WeightModel:
    """The alternating-harmonic partition ``p_k = 1/(k(k+1))``."""
    return WeightModel(kind="luroth", rho=2.0)


def power_model(rho: float) -> WeightModel:
    """Zeta-normalized pure power weights ``p_k = k**-rho / zeta(rho)``."""
    return WeightModel(kind="power", rho=float(rho))


def power_log_model(rho: float, gamma: float) -> WeightModel:
    """Power weights with a logarithmic slowly varying factor."""
    return WeightModel(kind="power-log", rho=float(rho), gamma=float(gamma))


def explicit_prefix_model(prefix, rho: float) -> WeightModel:
    """Explicit head probabilities, power tail carrying the leftover mass."""
    return WeightModel(
        kind="explicit-prefix",
        rho=float(rho),
        prefix=tuple(float(q) for q in prefix),
    )


def model_from_spec(spec: dict) -> WeightModel:
    """Build a model from its wire-format dictionary.

    Every kind reads ``rho``, ``gamma`` and ``prefix`` alike and must give
    those it does not fix; :class:`WeightModel` refuses the values it fixes.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("model spec must be an object with a 'kind' field")
    kind = spec["kind"]
    known = {"kind", "rho", "gamma", "prefix"}
    extra = set(spec) - known
    if extra:
        raise DomainError(f"unknown model spec fields: {sorted(extra)}")
    if kind not in _KINDS:
        raise DomainError(f"unknown weight-model kind {kind!r}")

    def number(key: str) -> float:
        return _number(spec.get(key), f"model spec field {key!r}")

    rho = number("rho") if "rho" in spec or kind != "luroth" else 2.0
    gamma = number("gamma") if "gamma" in spec or kind == "power-log" else 0.0
    prefix = ()
    if "prefix" in spec or kind == "explicit-prefix":
        items = spec.get("prefix")
        if not isinstance(items, (list, tuple)):
            raise DomainError("explicit-prefix spec needs a 'prefix' array")
        prefix = tuple(_number(q, "every entry of model spec field 'prefix'") for q in items)
    return WeightModel(kind=kind, rho=rho, gamma=gamma, prefix=prefix)


def model_to_spec(model: WeightModel) -> dict:
    """Inverse of :func:`model_from_spec` (built-in kinds only)."""
    if model.kind == "luroth":
        return {"kind": "luroth", "rho": 2}
    if model.kind == "power":
        return {"kind": "power", "rho": model.rho}
    if model.kind == "power-log":
        return {"kind": "power-log", "rho": model.rho, "gamma": model.gamma}
    if model.kind == "explicit-prefix":
        return {"kind": "explicit-prefix", "rho": model.rho, "prefix": list(model.prefix)}
    raise DomainError(f"kind {model.kind!r} has no wire format")


def _number(value, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DomainError(f"{what} must be a number")
    return float(value)


# -- pointwise weights ------------------------------------------------------


def weight(model: WeightModel, k: int) -> float:
    """``p_k``.  Digits are indexed from 1."""
    k = _positive_int(k, "digit index")
    if model.kind == "luroth":
        return 1.0 / (k * (k + 1.0))
    if k <= len(model.prefix):
        return model.prefix[k - 1]
    return k ** -model.rho * math.log(k + 1.0) ** model.gamma / model._norm


def _positive_int(value, what: str) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
        raise DomainError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def weights_range(model: WeightModel, lo: int, hi: int) -> np.ndarray:
    """Vector of ``p_k`` for ``k`` in ``[lo, hi)``."""
    if lo < 1 or hi < lo:
        raise DomainError("need 1 <= lo <= hi")
    k = np.arange(lo, hi, dtype=np.float64)
    if model.kind == "luroth":
        return 1.0 / (k * (k + 1.0))
    out = _powerlog_terms(k, model.rho, model.gamma) / model._norm
    head = np.asarray(model.prefix[lo - 1 : hi - 1], dtype=np.float64)
    out[: head.size] = head
    return out


def log_weights_of(model: WeightModel, word: np.ndarray) -> np.ndarray:
    """``log p_d`` for every digit of ``word`` (vectorized), stable for digits
    far beyond float overflow of ``1/p_d``."""
    d = np.asarray(word, dtype=np.int64)
    if d.size and d.min() < 1:
        raise DomainError("digits must be positive")
    df = d.astype(np.float64)
    if model.kind == "luroth":
        return -np.log(df) - np.log(df + 1.0)
    out = -model.rho * np.log(df) + model.gamma * np.log(np.log(df + 1.0)) - math.log(model._norm)
    head = d <= len(model.prefix)
    out[head] = np.log(model.prefix)[d[head] - 1]
    if not model.prefix:  # p_1 = 1 / (1 + R / log(2)**gamma) rounds to 1 for a steep tail
        rest = _powerlog_raw_tail(2, model.rho, model.gamma) / math.log(2.0) ** model.gamma
        out[d == 1] = -math.log1p(rest)
    return out


def slowly_varying(model: WeightModel, k: int) -> float:
    """The declared slowly varying factor ``L(k)`` with ``p_k = k**-rho L(k)``."""
    k = _positive_int(k, "digit index")
    if model.kind == "luroth":
        return k / (k + 1.0)
    return math.log(k + 1.0) ** model.gamma / model._norm


# -- tail sums ---------------------------------------------------------------


def tail_sum(model: WeightModel, M: int) -> float:
    """``sum_{k>=M} p_k``; equals 1 at ``M = 1``."""
    return tilted_tail_sum(model, M, 1.0)


def tilted_tail_sum(model: WeightModel, M: int, s: float) -> float:
    """``sum_{k>=M} p_k**s`` for ``rho*s > 1``, relative error below 1e-10."""
    M = _positive_int(M, "tail start")
    s = float(s)
    if s <= 0.0:
        raise DomainError("tilt exponent must be positive")
    if not model.rho * s > 1.0:
        raise DivergenceError(
            f"sum of p_k**s diverges: rho*s = {model.rho * s:g} <= 1"
        )
    if model.kind == "luroth":
        if s == 1.0:
            return 1.0 / M  # telescoping: sum 1/(k(k+1)) = 1/M
        return _luroth_pow_tail(M, s)
    tail = _powerlog_raw_tail(max(M, len(model.prefix) + 1), model.rho * s, model.gamma * s)
    return tail / model._norm ** s + sum(q ** s for q in model.prefix[M - 1 :])


def _luroth_pow_tail(M: int, s: float) -> float:
    """``sum_{k>=M} (k(k+1))**-s`` by explicit head + Euler-Maclaurin tail."""
    a = max(M, _EM_CUT)
    head = 0.0
    if a > M:
        k = np.arange(M, a, dtype=np.float64)
        head = float(np.sum((k * (k + 1.0)) ** -s))
    g = (a * (a + 1.0)) ** -s
    gp = -s * (2.0 * a + 1.0) * (a * (a + 1.0)) ** -(s + 1.0)
    return head + _luroth_pow_integral(float(a), s) + 0.5 * g - gp / 12.0


def _luroth_pow_integral(a: float, s: float) -> float:
    # integral_a^inf (x(x+1))**-s dx expanded as a binomial series in 1/x;
    # converges geometrically for a >= 2 and needs ~5 terms at the EM cut.
    total = 0.0
    coef = 1.0
    apow = a ** (1.0 - 2.0 * s)
    for j in range(80):
        term = coef * apow / (2.0 * s - 1.0 + j)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        coef *= -(s + j) / (j + 1.0)
        apow /= a
    return total


def _powerlog_raw_tail(M: int, q: float, g: float) -> float:
    """``sum_{k>=M} k**-q * log(k+1)**g`` for ``q > 1``; ``zeta(q, M)`` at ``g = 0``.

    Raises :class:`PrecisionError` when a term or incomplete gamma of the
    sum overflows a float, as it does for a large log exponent ``g``.
    """
    a = max(M, _EM_CUT)
    try:
        head = 0.0
        if a > M:
            head = float(np.sum(_powerlog_terms(np.arange(M, a, dtype=np.float64), q, g)))
        fa = float(a) ** -q * math.log(a + 1.0) ** g
        # f'(a) for the first Euler-Maclaurin correction
        fpa = fa * (-q / a + g / ((a + 1.0) * math.log(a + 1.0)))
        return head + _powerlog_tail_integral(float(a), q, g) + 0.5 * fa - fpa / 12.0
    except OverflowError as exc:
        raise PrecisionError(
            f"sum of k**-{q:g} * log(k+1)**{g:g} over k >= {M} overflows a float"
        ) from exc


def _powerlog_terms(k: np.ndarray, q: float, g: float) -> np.ndarray:
    """``k**-q * log(k+1)**g``; at ``g = 0`` the log factor is exactly 1 and skipped."""
    return k ** -q * np.log(k + 1.0) ** g if g else k ** -q


def _powerlog_tail_integral(a: float, q: float, g: float) -> float:
    """``integral_a^inf x**-q * log(x+1)**g dx`` to near machine precision.

    Substituting ``t = x + 1`` and expanding ``(1 - 1/t)**-q`` binomially
    turns each term into an upper incomplete gamma:
    ``integral_A^inf t**-p log(t)**g dt = (p-1)**-(g+1) * Gamma(g+1, (p-1) ln A)``.
    The series ratio is about ``1/A``, so a handful of terms suffice.
    """
    if not g > -1.0:
        raise DomainError(f"power-log tails need a log exponent (gamma, or gamma*s "
                          f"for a tilted tail at exponent s) above -1; got {g:g}")
    A = a + 1.0
    ln_a = math.log(A)
    total = 0.0
    coef = 1.0
    for j in range(80):
        p = q + j
        upper = _upper_gamma(g + 1.0, (p - 1.0) * ln_a)
        term = coef * (p - 1.0) ** -(g + 1.0) * upper
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        coef *= (q + j) / (j + 1.0)
    return total


def _upper_gamma(a: float, x: float) -> float:
    """``Gamma(a, x) = integral_x^inf t**(a-1) e**-t dt`` for ``a, x > 0``.

    ``Gamma(a)`` minus the lower series below ``x = a + 1``; above it, the
    Legendre continued fraction by the modified Lentz method.
    """
    if a == 1.0:  # the zeta tails, g = 0
        return math.exp(-x)
    scale = math.exp(a * math.log(x) - x)
    if x < a + 1.0:
        term = total = 1.0 / a
        n = 0
        while term >= 1e-17 * total:
            n += 1
            term *= x / (a + n)
            total += term
        return math.gamma(a) - scale * total
    b = x + 1.0 - a
    c, d = 1e300, 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b or 1e-300)
        c = b + an / c or 1e-300
        h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return scale * h


# -- truncated s-power exponent ----------------------------------------------


def partial_sum_exponent(model: WeightModel, K: int) -> float:
    """The exponent ``s`` in ``[0, 1)`` with ``sum_{k<=K} p_k**s = 1``.

    ``K = 1`` returns 0 exactly.  Other roots come from
    :func:`exponent_root`; the residual stays below 1e-12 for every ``K``
    up to 1e4.
    """
    K = _positive_int(K, "K")
    if K == 1:
        return 0.0
    p = weights_range(model, 1, K + 1)
    if float(p.sum()) >= 1.0 - 1e-15:
        raise DomainError("truncated weights already sum to 1; no root in [0, 1)")
    return exponent_root(np.log(p))


def exponent_root(logp: np.ndarray) -> float:
    """The exponent ``s`` in ``[0, 1)`` with ``sum(exp(s * logp)) = 1``.

    ``logp`` is an explicit table of log-weights whose weights sum to less
    than one.  The root is bracketed by bisection to width 1e-14 and
    polished with one secant step.
    """

    def excess(sv: float) -> float:
        return float(np.exp(sv * logp).sum()) - 1.0

    lo, hi = 0.0, 1.0  # excess(0) = logp.size - 1 > 0, excess(1) < 0
    flo = float(logp.size - 1)
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        fmid = excess(mid)
        if fmid >= 0.0:
            lo, flo = mid, fmid
        else:
            hi = mid
    fhi = excess(hi)
    root = lo
    if flo != fhi:
        root = lo - flo * (hi - lo) / (fhi - flo)
    return min(max(root, 0.0), 1.0 - 1e-16)


# -- empirical dyadic ratio scan ----------------------------------------------


@dataclass(frozen=True)
class PotterReport:
    """Certified empirical Potter-type constants for one model.

    For every scanned pair ``k_eps <= k <= m < 2k`` (with ``m`` within the
    scan horizon) the ratio bound ``p_m / p_k >= 1 / (2**(rho+eps) * C_eps)``
    holds, and ``p_k >= k**-rho * L(k) / 2`` holds for every scanned
    ``k >= k_eps``.
    """

    epsilon: float
    k_eps: int
    C_eps: float
    scan_limit: int


def potter_scan(
    model: WeightModel, epsilon: float, scan_limit: int = 10_000
) -> PotterReport:
    """Find the smallest certified ``(k_eps, C_eps)`` on a dyadic pair scan.

    ``C_eps`` is at least 1 and is reported rounded up to a 1e-3 grid.
    Raises :class:`HorizonExceededError` when no starting index up to
    ``scan_limit // 2`` certifies the half-bound, so that at least one
    genuine dyadic pair is covered, and :class:`PrecisionError` when a weight
    in the scan range underflows to 0, where the dyadic ratios are undefined.
    """
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    if scan_limit < 4:
        raise DomainError("scan_limit must be at least 4")
    p = weights_range(model, 1, scan_limit + 1)
    k = np.arange(1, scan_limit + 1, dtype=np.float64)
    L = _slowly_varying_vec(model, scan_limit)
    half_ok = p >= 0.5 * k ** -model.rho * L
    bad = np.nonzero(~half_ok)[0]
    k_eps = int(bad[-1]) + 2 if bad.size else 1
    if k_eps > scan_limit // 2:
        raise HorizonExceededError(
            f"half-bound not certified below scan_limit//2 = {scan_limit // 2}"
        )
    zero = np.flatnonzero(p == 0.0)
    if zero.size:
        raise PrecisionError(
            f"weight p_{zero[0] + 1} underflows to 0 in the Potter scan range 1..{scan_limit}"
        )
    logp = np.log(p)
    window_min = _dyadic_window_min(logp)
    # worst constant = max over k of p_k / (min_{k<=m<2k} p_m * 2**(rho+eps))
    span = logp[k_eps - 1 :] - window_min[k_eps - 1 :]
    worst = float(np.exp(span.max())) / 2.0 ** (model.rho + epsilon)
    c_eps = max(1.0, math.ceil(worst * 1000.0 - 1e-9) / 1000.0)
    return PotterReport(
        epsilon=epsilon,
        k_eps=k_eps,
        C_eps=c_eps,
        scan_limit=scan_limit,
    )


def _slowly_varying_vec(model: WeightModel, n: int) -> np.ndarray:
    k = np.arange(1, n + 1, dtype=np.float64)
    if model.kind == "luroth":
        return k / (k + 1.0)
    return np.log(k + 1.0) ** model.gamma / model._norm


def _dyadic_window_min(logp: np.ndarray) -> np.ndarray:
    """``out[i] = min(logp[i : min(2(i+1)-1, n)])`` via a sparse table."""
    n = logp.size
    table = [logp]
    width = 1
    while width * 2 <= n:
        prev = table[-1]
        table.append(np.minimum(prev[: prev.size - width], prev[width:]))
        width *= 2
    i = np.arange(n)
    hi = np.minimum(2 * i + 1, n)  # digits i+1 .. hi, zero-based i .. hi-1
    lev = np.frexp(hi - i)[1] - 1  # floor(log2(window length)), exact
    out = np.empty(n)
    for j, level in enumerate(table):
        at = np.flatnonzero(lev == j)
        out[at] = np.minimum(level[at], level[hi[at] - (1 << j)])
    return out


def verify_potter_report(
    model: WeightModel, report: PotterReport, sample_limit: int = 2000
) -> bool:
    """Re-check a report with plain loops (independent of the scan path)."""
    bound = 1.0 / (2.0 ** (model.rho + report.epsilon) * report.C_eps)
    limit = min(report.scan_limit, sample_limit)
    for kk in range(report.k_eps, limit + 1):
        pk = weight(model, kk)
        if pk < 0.5 * kk ** -model.rho * slowly_varying(model, kk):
            return False
        for mm in range(kk, min(2 * kk - 1, limit) + 1):
            if weight(model, mm) / pk < bound:
                return False
    return True


# -- sampling -----------------------------------------------------------------


@lru_cache(maxsize=16)
def _tail_anchor(model: WeightModel, M: int, s: float) -> float:
    """``tilted_tail_sum(model, M, s)``, kept for the tail inversions that start at ``M``."""
    return tilted_tail_sum(model, M, s)


# Largest tail start a tail inversion evaluates: its digit is at most 2**62.
_INVERT_LIMIT = (1 << 62) + 1

# Secant guesses per tail inversion.
_GUESS_STEPS = 6

# Relative rounding noise the float tail may carry, so that it need not be
# monotone within it: a guess settles the tail starts on its side of the
# target only when its tail clears the target by more than this.
_TAIL_NOISE = 1e-13


def _invert_tail(model: WeightModel, s: float, target: float, lo: int) -> int:
    """Smallest ``k >= lo`` with ``tilted_tail_sum(k+1) < target``.

    The search gallops up from ``lo`` by doubling, then bisects.  Each of its
    comparisons ``T(m) < target`` is answered by the bracket of
    :func:`_guess_bracket` where that settles it, and by a scalar tail
    evaluation elsewhere, so the digit is the one the plain search finds
    even where the float tail is not monotone.
    """
    a, b = _guess_bracket(model, s, target, lo)
    if b - a == 1 and b <= 1 << 61:
        return a  # the bracket settles every comparison, and the search ends at a

    def below(m: int) -> bool:
        return m >= b or (m > a and tilted_tail_sum(model, m, s) < target)

    k_lo = lo
    k_hi = max(2 * k_lo, k_lo + 1)
    while not below(k_hi + 1):
        k_lo = k_hi
        k_hi *= 2
        if k_hi > 1 << 62:
            raise TiltThresholdError("tail inversion ran past 2**62")
    while k_hi - k_lo > 1:
        mid = (k_lo + k_hi) // 2
        if below(mid + 1):
            k_hi = mid
        else:
            k_lo = mid
    return k_lo if below(k_lo + 1) else k_hi


def _guess_bracket(model: WeightModel, s: float, target: float, lo: int) -> tuple[int, int]:
    """Tail starts ``a < b``: ``T(m) >= target`` up to ``a``, ``T(m) < target`` from ``b`` on.

    Only a tail that clears the target by the relative margin ``_TAIL_NOISE``
    settles the starts on its side; ``a = lo`` and ``b > _INVERT_LIMIT``
    settle nothing.  Regular variation makes ``log T`` nearly linear in
    ``log m``, so secants guess where ``T`` crosses the two margins: the
    first through the cached tails at ``lo + 1`` and ``2 (lo + 1)``, later
    ones through the two latest evaluations.  Guesses alternate between the
    unsettled sides and are clamped into the open bracket.
    """
    high, low = target * (1.0 + _TAIL_NOISE), target * (1.0 - _TAIL_NOISE)
    a, b = lo, _INVERT_LIMIT + 1
    points = []
    for m in (lo + 1, 2 * lo + 2):
        t = _tail_anchor(model, m, s)
        if t >= high:
            a = m
        elif t < low:
            b = min(b, m)
        if t > 0.0:
            points.append((math.log(m), math.log(t)))
    if len(points) < 2 or not target > 0.0:
        return a, b
    (u0, v0), (u, v) = points
    slope = (v - v0) / (u - u0)
    want_b = True
    for _ in range(_GUESS_STEPS):
        if b - a <= 1 or not slope < 0.0:
            break
        x = u + (math.log(low if want_b else high) - v) / slope
        # T(m) < low from floor(x) + 1 on, T(m) >= high up to floor(x); a
        # guess past exp(44) > 2**62 goes to the top of the bracket
        m = math.floor(math.exp(x)) + int(want_b) if x < 44.0 else b - 1
        m = min(max(m, a + 1), b - 1)
        t = tilted_tail_sum(model, m, s)
        if t >= high:
            a, want_b = m, True
        elif t < low:
            b, want_b = m, False
        else:
            want_b = not want_b
        if not t > 0.0:
            break
        u_m, v_m = math.log(m), math.log(t)
        if (v_m - v) * (u_m - u) < 0.0:  # keep only falling secants
            slope = (v_m - v) / (u_m - u)
        u, v = u_m, v_m
    return a, b


def _float_bits(x):
    """The bit pattern of float64 ``x`` as int64: monotone in ``x`` for ``x >= 0``."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


# Buckets of the sampler's guide: about 2**_GUIDE_BITS over its table.
_GUIDE_BITS = 15

# Draws a sampler looks up at once, so that their temporaries stay in cache.
_SAMPLE_BLOCK = 1 << 16


class DigitSampler:
    """Vectorized inverse-CDF sampler for ``p_k**s / Z_s``.

    ``s = 1`` samples the base model.  A cumulative table covers the bulk of
    the mass; a draw beyond the table inverts the tilted tail sum with scalar
    evaluations (:func:`_invert_tail`), so the sampled law is the exact
    inverse-CDF law at every index.

    A target ``t`` is located in the table through a guide over the bits of
    the remaining mass ``total - t``, which the float bit pattern turns into
    a piecewise-linear ``log2`` (Chen & Asau's guide table, bucketed in the
    log of the tail as regular variation suggests).  Rounded subtraction and
    the bit view are both monotone, so the table entries on either side of
    ``t`` bound its bucket: the guide brackets the ``searchsorted`` answer,
    and a bisection inside the bracket returns it exactly.
    """

    def __init__(self, model: WeightModel, s: float = 1.0, table_size: int = 1 << 20):
        self.model = model
        self.s = float(s)
        self.total = tilted_tail_sum(model, 1, self.s) if self.s != 1.0 else 1.0
        self._fast_luroth = model.kind == "luroth" and self.s == 1.0
        if self._fast_luroth:
            self._cum = None
            return
        cum = weights_range(model, 1, table_size + 1)
        cum **= self.s
        self._cum = np.cumsum(cum, out=cum)
        self._table_size = table_size
        # key_k = bits(total) - bits(max(total - cum_k, 0)), built in one buffer
        keys = np.subtract(self.total, cum)
        np.maximum(keys, 0.0, out=keys)
        bits = keys.view(np.int64)
        np.subtract(_float_bits(self.total), bits, out=bits)
        span = int(bits[-1])
        self._shift = max(span.bit_length() - _GUIDE_BITS, 0)
        bits >>= self._shift
        # _guide[b] is the first entry whose bucket is b or above; _top, the
        # first bucket past the table's last, brackets [table_size, table_size]
        self._top = (span >> self._shift) + 1
        self._guide = np.searchsorted(bits, np.arange(self._top + 2), side="left")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        if self._fast_luroth:
            return np.floor(1.0 / (1.0 - u)).astype(np.int64)
        out = u.view(np.int64)  # each block's digits overwrite its uniforms
        for start in range(0, size, _SAMPLE_BLOCK):
            block = slice(start, start + _SAMPLE_BLOCK)
            target = u[block] * self.total
            digits = self._locate(target)
            digits += 1
            for i in np.flatnonzero(digits > self._table_size):
                digits[i] = _invert_tail(
                    self.model, self.s, self.total - target[i], self._table_size
                )
            out[block] = digits
        return out

    def _locate(self, target: np.ndarray) -> np.ndarray:
        """``np.searchsorted(self._cum, target, side="right")`` for ``0 <= target <= total``."""
        bucket = _float_bits(self.total - target)
        np.subtract(_float_bits(self.total), bucket, out=bucket)
        bucket >>= self._shift
        np.minimum(bucket, self._top, out=bucket)
        idx = self._guide[bucket]
        hi = self._guide[1:][bucket]
        wide = np.flatnonzero(idx != hi)
        if wide.size:
            a, b, t = idx[wide], hi[wide], target[wide]
            for _ in range(int((b - a).max()).bit_length()):
                mid = (a + b) >> 1
                up = (self._cum.take(mid, mode="clip") <= t) & (mid < b)
                a = np.where(up, mid + 1, a)
                b = np.where(up, b, mid)
            idx[wide] = a
        return idx
