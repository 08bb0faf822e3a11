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
inverse-CDF digit sampling, which labels the draws past its table by the
equality of their digits (:class:`DigitSampler`).

Every power-type tail is ``sum_{k>=M} k**-q * log(k+1)**g`` (Hurwitz zeta at
``g = 0``), summed by one solver: an explicit head plus an Euler-Maclaurin
remainder whose integral is a short series of ``Gamma(a, x)`` values from the
private :func:`_upper_gamma`.  Tails stay better than 1e-10 relative, with numpy alone.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .codec import as_count, as_word
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

# Longest word a command may draw.  ``simulate`` streams each trial in blocks
# of _SAMPLE_BLOCK draws, so its memory does not grow with the word; ``cylsum``
# draws and sorts whole words, which peaked at 181 MB at this length (Luroth,
# s = 1, on a 2-CPU virtual machine).
_MAX_DRAWS = 1 << 24


@dataclass(frozen=True)
class WeightModel:
    """Immutable description of a digit-weight sequence.

    ``prefix`` holds ``p_1..p_m``; for ``k > m`` a non-luroth model has
    ``p_k = k**-rho * log(k+1)**gamma / _norm``.  Each kind fixes fields:
    ``luroth`` has ``rho = 2``, ``gamma = 0`` and no prefix; ``power`` has
    ``gamma = 0`` and no prefix; ``power-log`` has ``gamma > -1`` and no prefix;
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
        if not self.gamma > -1.0:
            raise DomainError(f"power-log weights need gamma above -1; got {self.gamma:g}")
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
        # :g unless it reads back as another float, so that a header names its run's model
        rho, gamma = (f"{x:g}" if float(f"{x:g}") == x else repr(x) for x in (self.rho, self.gamma))
        if self.kind == "power":
            return f"power(rho={rho})"
        if self.kind == "power-log":
            return f"power-log(rho={rho}, gamma={gamma})"
        if self.kind == "explicit-prefix":
            return f"explicit-prefix({len(self.prefix)} entries, rho={rho})"
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
    k = as_count(k, "digit index")
    return float(weights_range(model, k, k + 1)[0])


def weights_range(model: WeightModel, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """Vector of ``p_k`` for ``k`` in ``[lo, hi)``, written to ``out`` when given."""
    lo = as_count(lo, "lo")
    hi = as_count(hi, "hi", least=lo)
    # float64 steps of 1 are exact up to 2**53; past it each k is rounded as weight() rounds it
    x = np.arange(lo, hi, dtype=np.float64) if hi <= 1 << 53 else np.array(range(lo, hi), np.float64)
    out = _closed_form(model, x, out)
    head = np.asarray(model.prefix[lo - 1 : hi - 1], dtype=np.float64)
    out[: head.size] = head
    return out


def _closed_form(model: WeightModel, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x**-rho * L(x)`` at the float64 array ``x``, which it may overwrite, written to
    ``out`` when given: the weight formula past any prefix, and the one place it is evaluated."""
    if model.kind == "luroth":
        out = np.add(x, 1.0, out=out)
        out *= x
        return np.divide(1.0, out, out=out)
    try:
        out = _powerlog_terms(x, model.rho, model.gamma, out)
    except FloatingPointError as exc:
        raise PrecisionError(f"weights of {model.describe()} leave the float range") from exc
    out /= model._norm
    return out


def log_weights_of(model: WeightModel, word) -> np.ndarray:
    """``log p_d`` for every digit of ``word`` (vectorized), stable for digits
    far beyond float overflow of ``1/p_d``."""
    d = as_word(word)
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
    k = as_count(k, "digit index")
    if model.kind == "luroth":
        return k / (k + 1.0)
    return math.log(k + 1.0) ** model.gamma / model._norm


# -- tail sums ---------------------------------------------------------------


def tail_sum(model: WeightModel, M: int) -> float:
    """``sum_{k>=M} p_k``; equals 1 at ``M = 1``."""
    return tilted_tail_sum(model, M, 1.0)


def tilted_tail_sum(model: WeightModel, M: int, s: float) -> float:
    """``sum_{k>=M} p_k**s`` for ``rho*s > 1``, relative error below 1e-10;
    :class:`PrecisionError` where a step of the sum or the sum leaves the float range."""
    M = as_count(M, "tail start")
    s = float(s)
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"tilt exponent must be positive and finite; got s = {s!r}")
    if not model.rho * s > 1.0:
        raise DivergenceError(
            f"sum of p_k**s diverges: rho*s = {model.rho * s:g} <= 1"
        )
    if model.kind == "luroth" and s == 1.0:
        return 1.0 / M  # telescoping: sum 1/(k(k+1)) = 1/M
    where = f"tilted tail sum at M = {M}, s = {s!r}"
    try:
        if model.kind == "luroth":
            total = _luroth_pow_tail(M, s)
        else:
            tail = _powerlog_raw_tail(max(M, len(model.prefix) + 1), model.rho * s, model.gamma * s)
            total = tail / model._norm ** s + sum(q ** s for q in model.prefix[M - 1 :])
    except (OverflowError, ZeroDivisionError) as exc:  # the divisor's power over- or underflows
        raise PrecisionError(f"{where} leaves the float range") from exc
    if not math.isfinite(total):
        raise PrecisionError(f"{where} is not finite: {total!r}")
    return total


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
    except (OverflowError, FloatingPointError) as exc:
        raise PrecisionError(
            f"sum of k**-{q:g} * log(k+1)**{g:g} over k >= {M} overflows a float"
        ) from exc


def _powerlog_terms(k: np.ndarray, q: float, g: float, out: np.ndarray | None = None) -> np.ndarray:
    """``k**-q * log(k+1)**g``, in ``out`` or a new array; ``k`` is overwritten.  At
    ``g = 0`` the log factor is exactly 1 and skipped.  A log factor that overflows
    raises :class:`FloatingPointError`, with no warning first."""
    with np.errstate(over="raise", invalid="raise"):
        out = np.power(k, -q, out=out)
        if g:
            k += 1.0
            np.log(k, out=k)
            k **= g
            out *= k
    return out


def _powerlog_tail_integral(a: float, q: float, g: float) -> float:
    """``integral_a^inf x**-q * log(x+1)**g dx`` to near machine precision.

    Substituting ``t = x + 1`` and expanding ``(1 - 1/t)**-q`` binomially
    turns each term into an upper incomplete gamma:
    ``integral_A^inf t**-p log(t)**g dt = (p-1)**-(g+1) * Gamma(g+1, (p-1) ln A)``.
    The series ratio is about ``1/A``, so a handful of terms suffice.
    """
    A = a + 1.0
    ln_a = math.log(A)
    # Gamma(g + 1, x) needs g > -1, or x = (q - 1) ln A > g + 2 for its continued fraction
    if not (g > -1.0 or (q - 1.0) * ln_a > g + 2.0):
        raise DomainError(f"power-log tail sum of k**-{q:g} * log(k+1)**{g:g} needs a log "
                          f"exponent above -1 or a steeper power; got {g:g}")
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
    """``Gamma(a, x) = integral_x^inf t**(a-1) e**-t dt`` for ``x > 0`` and ``a > 0``,
    or any ``a`` once ``x >= a + 1``.

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


# The largest truncation K whose weights a solve for the exponent reads:
# partial_sum_exponent's K, and the tables of sublinear.threshold_index.
_MAX_THRESHOLD = 1 << 20


def partial_sum_exponent(model: WeightModel, K: int) -> float:
    """The exponent ``s`` in ``[0, 1)`` with ``sum_{k<=K} p_k**s = 1``.

    ``K = 1`` returns 0 exactly.  Other roots come from
    :func:`exponent_root`; the residual stays below 1e-12 for every ``K``
    up to 1e4.  ``K`` above ``_MAX_THRESHOLD`` raises :class:`DomainError`
    before any weight is computed.
    """
    K = as_count(K, "K")
    if K > _MAX_THRESHOLD:
        raise DomainError(f"truncation K = {K} exceeds the limit of {_MAX_THRESHOLD}")
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
    if not 0.0 < epsilon < math.inf:
        raise DomainError(f"epsilon must be positive and finite, got {epsilon!r}")
    scan_limit = as_count(scan_limit, "scan_limit", least=4)
    if scan_limit > _MAX_THRESHOLD:
        raise DomainError(f"scan limit {scan_limit} exceeds the limit of {_MAX_THRESHOLD}")
    p = weights_range(model, 1, scan_limit + 1)
    half_ok = p >= 0.5 * _closed_form(model, np.arange(1.0, scan_limit + 1.0))
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


def _dyadic_window_min(logp: np.ndarray) -> np.ndarray:
    """``out[i] = min(logp[i : min(2(i+1)-1, n)])`` via a sparse table, one level at
    a time: level ``j`` holds the minima of windows of ``2**j``, is built from
    level ``j - 1``, and fills the windows whose length it spans before the next
    level replaces it."""
    n = logp.size
    i = np.arange(n)
    hi = np.minimum(2 * i + 1, n)  # digits i+1 .. hi, zero-based i .. hi-1
    lev = np.frexp(hi - i)[1] - 1  # floor(log2(window length)), exact
    out = np.empty(n)
    level, width = logp, 1
    for j in range(int(lev.max(initial=-1)) + 1):
        if j:
            level = np.minimum(level[: level.size - width], level[width:])
            width *= 2
        at = np.flatnonzero(lev == j)
        out[at] = np.minimum(level[at], level[hi[at] - width])
    return out


# Largest index the plain-loop re-check of a Potter report visits.
_POTTER_RECHECK_LIMIT = 2000


def verify_potter_report(model: WeightModel, report: PotterReport) -> bool:
    """Re-check a report with plain loops (independent of the scan path)."""
    bound = 1.0 / (2.0 ** (model.rho + report.epsilon) * report.C_eps)
    limit = min(report.scan_limit, _POTTER_RECHECK_LIMIT)
    p = [0.0] + [weight(model, k) for k in range(1, limit + 1)]  # p[k] is p_k
    for kk in range(report.k_eps, limit + 1):
        pk = p[kk]
        if pk < 0.5 * kk ** -model.rho * slowly_varying(model, kk):
            return False
        for mm in range(kk, min(2 * kk - 1, limit) + 1):
            if p[mm] / pk < bound:
                return False
    return True


# -- sampling -----------------------------------------------------------------


def _invert_tail(model: WeightModel, s: float, target: float, lo: int) -> int:
    """Smallest ``k >= lo`` with ``tilted_tail_sum(k+1) < target``.

    The search gallops up from ``lo`` by doubling, then bisects, one scalar
    tail evaluation per step.  It raises :class:`TiltThresholdError` once the
    doubling passes ``2**62``.
    """

    def below(m: int) -> bool:
        return tilted_tail_sum(model, m, s) < target

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


def _weight_bound(model: WeightModel, m: int) -> float:
    """The supremum of ``p_k`` over ``k >= m``, up to rounding: the tail formula
    at its peak over real ``x >= m``, or any prefix weight past ``m``.

    In float it is not a bound on every ``p_k``: where the tail rises to a peak,
    the rounding of the formula at the peak and at the digits near it differ,
    and for power-log(4, 68) a weight near digit 24,154,935 lies 61 ulp (7e-15
    relative) above it.  The sampler's margin ``1 + _BOUND_SLACK`` covers that.
    """
    tail = _closed_form(model, np.array([max(float(m), _falling_from(model))]))
    return max((float(tail[0]), *model.prefix[m - 1 :]))


def _falling_from(model: WeightModel) -> float:
    """A real ``x`` such that the weights never rise from digit ``ceil(x)`` on:
    past the prefix and past the peak of the tail formula."""
    return max(len(model.prefix) + 1.0, _log_factor_peak(model.rho, model.gamma))


def _log_factor_peak(rho: float, gamma: float) -> float:
    """Where ``x**-rho * log(x+1)**gamma`` peaks on ``x > 0``; 0 where it only falls.

    Its log derivative has the sign of ``gamma x - rho (x+1) log(x+1)``, which
    is negative for every ``x > 0`` at ``gamma <= rho`` and otherwise changes
    sign once, at ``y = log(x+1)`` in ``(0, gamma/rho)``; bisection finds it.
    """
    if gamma <= rho:
        return 0.0
    lo, hi = 0.0, gamma / rho
    for _ in range(64):
        y = 0.5 * (lo + hi)
        if rho * math.exp(y) * y < gamma * math.expm1(y):
            lo = y
        else:
            hi = y
    return math.expm1(lo)


def _float_bits(x):
    """The bit pattern of float64 ``x`` as int64: monotone in ``x`` for ``x >= 0``."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


# The sampler's guide has at most 2**_GUIDE_BITS buckets over its table, and more
# than half as many unless its keys span fewer.
_GUIDE_BITS = 16

# Draws a sampler looks up at once, and that ``simulate`` draws per call, so
# that their temporaries stay in cache.
_SAMPLE_BLOCK = 1 << 16


# A deep draw's label past the table: this plus its position in the word.  No
# inverted digit reaches it, since the inversion stops at 2**62.
_LABEL_BASE = (1 << 62) + 1

# A grid start m lies at or below a deep draw's digit k once
# T(m) >= R * (1 + _GRID_SLACK): k < m would give T(k+1) >= R unless the float
# tails at m and k + 1 erred by more than 2e-10 together, and each errs by
# under 1e-10.
_GRID_SLACK = 1e-9

# A deep draw's margin is bound(m) * (1 + _BOUND_SLACK) + _MASS_NOISE * R: the
# bound on q_k, with room for its own rounding, plus twice the 2e-10 R by which
# the float tail can widen the masses of one digit.
_BOUND_SLACK = 1e-6
_MASS_NOISE = 4e-10

class DigitSampler:
    """Vectorized inverse-CDF sampler for ``p_k**s / Z_s`` that labels its deep draws.

    ``s = 1`` samples the base model.  A cumulative table covers the bulk of
    the mass, and a draw inside it gets its digit.  A *deep* draw, past the
    table, gets a label: its digit where that is needed, and otherwise a
    number past ``2**62`` that no other draw of the word carries.  Two draws
    of one word have equal labels exactly when their inverse-CDF digits are
    equal, which is all a distinct count reads.  :meth:`sample` labels the
    draws of its own call.  :meth:`invert` turns uniforms into one int64 array
    in which a deep draw holds its remaining mass as negated float64 bits, so
    a word drawn in pieces is labelled once it ends, by :meth:`label`, which
    reads the masses back from the negative entries.

    A target ``t`` is located in the table through a guide over the bits of
    the remaining mass ``total - t``, which the float bit pattern turns into
    a piecewise-linear ``log2`` (Chen & Asau's guide table, bucketed in the
    log of the tail as regular variation suggests).  Rounded subtraction and
    the bit view are both monotone, so the table entries on either side of
    ``t`` bound its bucket: the guide brackets the ``searchsorted`` answer,
    and a power-of-two search inside the bracket returns it exactly.  The table
    and its guide are built ``_SAMPLE_BLOCK`` weights at a time.

    Why deep labels keep equality.  Write ``T(m)`` for
    ``tilted_tail_sum(model, m, s)``, within 1e-10 relative of the true tail,
    and ``q_k = p_k**s``.  :func:`_invert_tail` gives a deep draw's remaining
    mass ``R = total - t`` the digit ``k`` with ``T(k+1) < R <= T(k)``, so two
    draws of digit ``k`` lie within ``q_k`` of each other, plus ``2e-10 R`` of
    float noise.  The grid start ``m = (table_size + 1) * 2**j`` taken for a
    draw is the largest with ``T(m) >= R (1 + 1e-9)``, if any, which forces
    ``k >= m``: so ``k`` lies past the table, and ``q_k`` is at most
    ``bound**s``, where :func:`_weight_bound` gives the supremum of the weights
    past ``m``, up to a rounding that ``1 + 1e-6`` covers.  A draw whose
    neighbours in the sorted masses both lie farther away than
    ``bound**s (1 + 1e-6) + 4e-10 R`` therefore shares its digit with no
    other draw, and its label is ``2**62 + 1 + position``.  Every other deep
    draw is inverted; one whose digit lies past ``2**62`` raises
    :class:`TiltThresholdError`.
    """

    def __init__(self, model: WeightModel, s: float = 1.0, table_size: int = 1 << 20):
        table_size = as_count(table_size, "table_size")
        self.model = model
        self.s = float(s)
        self.total = tilted_tail_sum(model, 1, self.s) if self.s != 1.0 else 1.0
        self._fast_luroth = model.kind == "luroth" and self.s == 1.0
        if self._fast_luroth:
            self._cum = None
            return
        self._table_size = table_size
        # the table, padded with one +inf slot for the searches that probe past
        # its end, is summed _SAMPLE_BLOCK weights at a time: np.cumsum folds in
        # sequence, so a piece that starts from the last sum keeps every bit of
        # the one-piece table, which a build temporary does not have to hold
        padded = np.empty(table_size + 1)
        padded[-1] = np.inf
        self._padded, self._cum = padded, padded[:-1]
        last = 0.0
        for lo in range(0, table_size, _SAMPLE_BLOCK):
            hi = min(lo + _SAMPLE_BLOCK, table_size)
            piece = weights_range(model, lo + 1, hi + 1, out=self._cum[lo:hi])
            piece **= self.s
            piece[0] += last
            last = float(np.cumsum(piece, out=piece)[-1])
        # key_k = bits(total) - bits(max(total - cum_k, 0)) rises with k, to span
        total_bits = _float_bits(self.total)
        span = int(total_bits - _float_bits(max(self.total - last, 0.0)))
        self._shift = max(span.bit_length() - _GUIDE_BITS, 0)
        # _guide[b], the count of entries in buckets below b, is the first entry
        # whose bucket is b or above: each piece adds one at b + 1 for an entry
        # in bucket b, and the sums of those counts follow.  _top, the first
        # bucket past the table's last, brackets [table_size, table_size]
        self._top = (span >> self._shift) + 1
        guide = np.zeros(self._top + 2, dtype=np.intp)
        keys = np.empty(min(table_size, _SAMPLE_BLOCK))
        for lo in range(0, table_size, _SAMPLE_BLOCK):
            piece = self._cum[lo : lo + _SAMPLE_BLOCK]
            key = np.subtract(self.total, piece, out=keys[: piece.size])
            np.maximum(key, 0.0, out=key)
            bucket = key.view(np.int64)
            np.subtract(total_bits, bucket, out=bucket)
            bucket >>= self._shift
            bucket += 1
            np.add.at(guide, bucket, 1)
        self._guide = np.cumsum(guide, out=guide)
        self._local = threading.local()
        # the margin grid: tails, negated to increase, and weight bounds at
        # the starts (table_size + 1) * 2**j up to 2**62
        starts = [table_size + 1]
        while 2 * starts[-1] <= 1 << 62:
            starts.append(2 * starts[-1])
        tails = np.array([tilted_tail_sum(model, m, self.s) for m in starts])
        self._grid_tails = -np.minimum.accumulate(tails)
        self._grid_bounds = np.array([_weight_bound(model, m) ** self.s for m in starts])
        self._grid_bounds *= 1.0 + _BOUND_SLACK

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Labels of ``size`` draws: digits inside the table, deep labels over this call."""
        return self.label(self.invert(rng.random(as_count(size, "size", least=0))))

    def invert(self, u: np.ndarray) -> np.ndarray:
        """The draws of the float64 uniforms ``u``, worked out in place in their
        buffer, viewed as int64: digits inside the table, and each deep draw's
        remaining mass ``total - t > 0`` as negated float64 bits, so exactly the
        deep draws are negative.  :meth:`label` labels them once the word ends."""
        out = u.view(np.int64)  # each block's digits overwrite its uniforms
        for start in range(0, u.size, _SAMPLE_BLOCK):
            block = slice(start, start + _SAMPLE_BLOCK)
            if self._fast_luroth:  # Lüroth digits floor(1 / (1 - u)), worked out in place
                digits = u[block]
                np.subtract(1.0, digits, out=digits)
                np.divide(1.0, digits, out=digits)
                out[block] = np.floor(digits, out=digits)
                continue
            # the targets go to this thread's scratch, and the digits over their uniforms
            target = self._scratch(min(_SAMPLE_BLOCK, u.size - start))[0].view(np.float64)
            np.multiply(u[block], self.total, out=target)
            digits = self._locate(target, out=out[block])
            digits += 1
            deep = np.flatnonzero(digits > self._table_size)
            if deep.size:
                digits[deep] = np.negative(np.subtract(self.total, target[deep]).view(np.int64))
        return out

    def threshold(self, K: int) -> float:
        """The least uniform whose draw exceeds digit ``K``, for ``K`` up to the table
        size; 0.0 at ``K = 0``, and 1.0 where no uniform below 1 gets past ``K``.

        Every step of :meth:`invert` is monotone in ``u``, so a draw exceeds ``K``
        exactly when its uniform is at least this.  Inside the table that is
        ``u * total >= cum_K``, by ``searchsorted``'s right side; on the Lüroth
        path, ``1 / (1 - u) >= K + 1``.  The closed form ``cum_K / total``, or
        ``1 - 1 / (K + 1)``, is moved ulp by ulp to the edge of that same float
        arithmetic.
        """
        K = as_count(K, "K", least=0)
        if not K:
            return 0.0
        if self._fast_luroth:
            c = 1.0 - 1.0 / (K + 1)

            def exceeds(u: float) -> bool:
                return 1.0 / (1.0 - u) >= K + 1
        else:
            if K > self._table_size:
                raise DomainError(f"digit {K} lies past the sampler table of {self._table_size}")
            edge = float(self._cum[K - 1])
            c = min(edge / self.total, 1.0)

            def exceeds(u: float) -> bool:
                return u * self.total >= edge
        while c > 0.0 and exceeds(math.nextafter(c, 0.0)):
            c = math.nextafter(c, 0.0)
        while c < 1.0 and not exceeds(c):
            c = math.nextafter(c, 1.0)
        return c

    def label(self, labels: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
        """``labels`` of one word, its negative entries (deep draws) labelled in place
        by their positions ``at`` in the word (default: their index): see the class."""
        deep = np.flatnonzero(labels < 0)
        if not deep.size:
            return labels
        mass = np.negative(labels[deep]).view(np.float64)
        found = (deep if at is None else at[deep]) + _LABEL_BASE
        order = np.argsort(mass)
        r = mass[order]
        j = np.searchsorted(self._grid_tails, -r * (1.0 + _GRID_SLACK), side="right") - 1
        margin = np.where(j >= 0, self._grid_bounds[j], np.inf) + _MASS_NOISE * r
        gap = np.diff(r)
        alone = (np.append(gap, np.inf) > margin) & (np.insert(gap, 0, np.inf) > margin)
        for i in order[~alone]:
            found[i] = _invert_tail(self.model, self.s, float(mass[i]), self._table_size)
        labels[deep] = found
        return labels

    def _scratch(self, size: int) -> np.ndarray:
        """Three int64 rows of ``size`` entries, which this thread reuses from call
        to call: block-sized temporaries then come from the same pages each block."""
        rows = getattr(self._local, "rows", None)
        if rows is None or rows.shape[1] < size:
            rows = self._local.rows = np.empty((3, size), dtype=np.int64)
        return rows[:, :size]

    def _locate(self, target: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``np.searchsorted(self._cum, target, side="right")`` for ``0 <= target <= total``,
        in ``out`` when given (int64, not ``target``'s buffer), else in a new array.
        ``target`` may lie in the first row of this thread's scratch, not in the others."""
        _, bucket, hi = self._scratch(target.size)
        np.subtract(self.total, target, out=bucket.view(np.float64))
        np.subtract(_float_bits(self.total), bucket, out=bucket)
        bucket >>= self._shift
        # clipped, a bucket past the table's last brackets [table_size, table_size];
        # unlike mode="raise", "clip" writes to out without a buffer
        idx = self._guide.take(bucket, mode="clip", out=out)
        self._guide[1:].take(bucket, mode="clip", out=hi)
        wide = np.flatnonzero(idx != hi)
        if wide.size:
            # the answer lies in [a, hi], and every entry from hi on exceeds t, as
            # does the +inf slot that a probe clipped past the table reads; so a
            # rises by 2**j where the entry 2**j - 1 past it is at most t, for
            # each j below the bit length of hi - a, and ends at the answer
            a, t = idx[wide], target[wide]
            for j in reversed(range(int((hi[wide] - a).max()).bit_length())):
                up = self._padded.take(a + ((1 << j) - 1), mode="clip") <= t
                np.add(a, 1 << j, out=a, where=up)
            idx[wide] = a
        return idx
