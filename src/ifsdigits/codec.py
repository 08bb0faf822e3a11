"""Digit words, cylinders, and the expansion map for interval partitions.

Each weight model induces a partition of ``[0, 1)`` into consecutive
half-open intervals ``I_k`` of length ``p_k`` (the *canonical* layout: the
left endpoint of ``I_k`` is the cumulative mass through ``k - 1``).  The
expansion map rescales ``I_k`` back to ``[0, 1)``; iterating it encodes a
point as a digit word, and folding the inverse branches decodes a word into
its cylinder interval.

For the ``luroth`` model a second, *classical* layout is supported: the
branch with digit index ``k`` lives on ``(1/(k+1), 1/k]`` and the expansion
map is ``x -> k(k+1)x - k``.  The classical digit value of tradition is
``k + 1``; this module indexes branches by ``k`` everywhere.
Classical-layout cylinders are reported as closed intervals (the closure of
the half-open branch image) so a cylinder always contains the partial sums
of its series expansion.

Luroth arithmetic is exact over ``fractions.Fraction`` up to a configurable
depth; everything else, and anything deeper, runs in float/log space.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, PrecisionError
from .weights import _MAX_TABLE, WeightModel, log_weights_of, weight, weights_range

__all__ = [
    "Cylinder",
    "cylinder",
    "encode",
    "apply_expansion",
    "digit_interval",
    "luroth_series_eval",
    "word_to_line",
    "word_from_line",
    "csv_chunks",
]

LAYOUTS = ("canonical", "classical")

# Past this word length, exact rational endpoints must be requested
# explicitly; the default answer switches to log space.
DEFAULT_EXACT_DEPTH = 1000

# Rows per chunk of CSV text, so a million-row table never sits in memory as text.
CSV_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class Cylinder:
    """A decoded digit word: interval data plus log-diameter.

    ``left`` is the infimum of the cylinder.  In the canonical layout the
    cylinder is ``[left, left + diam)``; in the classical layout it is the
    closure ``[left, left + diam]``.  ``left_exact`` and ``diam_exact`` are
    populated in exact (luroth) mode only.
    """

    digits: tuple[int, ...]
    layout: str
    log_diam: float
    left: float
    left_exact: Fraction | None = None
    diam_exact: Fraction | None = None

    @property
    def diam(self) -> float:
        return math.exp(self.log_diam)

    def contains(self, x) -> bool:
        if self.left_exact is not None:
            right = self.left_exact + self.diam_exact
            if self.layout == "classical":
                return self.left_exact <= x <= right
            return self.left_exact <= x < right
        x = float(x)
        if self.layout == "classical":
            return self.left <= x <= self.left + self.diam
        return self.left <= x < self.left + self.diam


def _check_layout(model: WeightModel, layout: str) -> None:
    if layout not in LAYOUTS:
        raise DomainError(f"unknown layout {layout!r}")
    if layout == "classical" and model.kind != "luroth":
        raise DomainError("the classical layout applies to the luroth model only")


def _check_word(word) -> tuple[int, ...]:
    digits = tuple(int(d) for d in word)
    if any(d < 1 for d in digits):
        raise DomainError("digits must be positive integers")
    return digits


# -- decoding ------------------------------------------------------------------


def cylinder(
    model: WeightModel,
    word,
    layout: str = "canonical",
    exact: bool | None = None,
    exact_depth: int = DEFAULT_EXACT_DEPTH,
) -> Cylinder:
    """Decode a digit word into its cylinder.

    ``exact=None`` picks exact rational endpoints for luroth words no longer
    than ``exact_depth`` and log-space floats otherwise.  Requesting
    ``exact=True`` elsewhere raises :class:`PrecisionError`.
    """
    _check_layout(model, layout)
    digits = _check_word(word)
    if exact is None:
        exact = model.kind == "luroth" and len(digits) <= exact_depth
    if exact:
        if model.kind != "luroth":
            raise PrecisionError("exact endpoints are only available for luroth")
        if len(digits) > exact_depth:
            raise PrecisionError(
                f"word length {len(digits)} exceeds exact depth {exact_depth}"
            )
        left = Fraction(0)
        diam = Fraction(1)
        for d in reversed(digits):
            p = Fraction(1, d * (d + 1))
            left = _branch_left_exact(d, layout) + p * left
            diam *= p
        log_diam = _log_diam(model, digits)
        return Cylinder(
            digits=digits,
            layout=layout,
            log_diam=log_diam,
            left=float(left),
            left_exact=left,
            diam_exact=diam,
        )
    left = 0.0
    for d in reversed(digits):
        left = _branch_left_float(model, d, layout) + weight(model, d) * left
    return Cylinder(
        digits=digits, layout=layout, log_diam=_log_diam(model, digits), left=left
    )


def _log_diam(model: WeightModel, digits: tuple[int, ...]) -> float:
    if not digits:
        return 0.0
    return float(np.sum(log_weights_of(model, np.asarray(digits, dtype=np.int64))))


def _branch_left_exact(d: int, layout: str) -> Fraction:
    if layout == "classical":
        return Fraction(1, d + 1)
    return Fraction(d - 1, d)


@lru_cache(maxsize=64)
def _cum_table(model: WeightModel, size: int) -> np.ndarray:
    if size > _MAX_TABLE:
        raise PrecisionError(f"cumulative table of {size} entries exceeds the cap {_MAX_TABLE}")
    table = np.cumsum(weights_range(model, 1, size + 1))
    table.flags.writeable = False
    return table


def _branch_left_float(model: WeightModel, d: int, layout: str) -> float:
    if layout == "classical":
        return 1.0 / (d + 1.0)
    if model.kind == "luroth":
        return (d - 1.0) / d
    size = 1 << max(4, int(d).bit_length())
    return 0.0 if d == 1 else float(_cum_table(model, size)[d - 2])


def digit_interval(
    model: WeightModel, k: int, layout: str = "canonical", exact: bool | None = None
):
    """Endpoints of the branch interval ``I_k`` (as a pair).

    Successive canonical intervals share endpoints exactly: the right
    endpoint of ``I_k`` is computed as the same cumulative sum that defines
    the left endpoint of ``I_{k+1}``.
    """
    return_cyl = cylinder(model, (k,), layout=layout, exact=exact)
    if return_cyl.left_exact is not None:
        return return_cyl.left_exact, return_cyl.left_exact + return_cyl.diam_exact
    if layout == "classical":
        return return_cyl.left, 1.0 / k
    if model.kind == "luroth":
        return return_cyl.left, k / (k + 1.0)
    size = 1 << max(4, int(k).bit_length())
    return return_cyl.left, float(_cum_table(model, size)[k - 1])


# -- encoding ------------------------------------------------------------------


def encode(model: WeightModel, x, n: int, layout: str = "canonical") -> tuple[int, ...]:
    """First ``n`` digits of ``x``.

    Accepts a ``Fraction`` (or int) for exact luroth arithmetic, otherwise
    floats.  Canonical layout expects ``0 <= x < 1``; classical expects
    ``0 < x <= 1``.
    """
    _check_layout(model, layout)
    if n < 0:
        raise DomainError("digit count must be nonnegative")
    digits = []
    for _ in range(n):
        d, x = apply_expansion(model, x, layout=layout)
        digits.append(d)
    return tuple(digits)


def apply_expansion(model: WeightModel, x, layout: str = "canonical"):
    """One step of the expansion map: return ``(digit, T(x))``."""
    _check_layout(model, layout)
    exact = isinstance(x, (Fraction, int)) and not isinstance(x, bool)
    if exact and model.kind != "luroth":
        x = float(x)
        exact = False
    if layout == "classical":
        if not 0 < x <= 1:
            raise DomainError("classical layout needs 0 < x <= 1")
        if exact:
            x = Fraction(x)
            # 1/x in [k, k+1) puts x in (1/(k+1), 1/k]
            k = int(Fraction(1) / x)
            return k, k * (k + 1) * x - k
        k = int(1.0 / x)
        return k, k * (k + 1.0) * x - k
    if not 0 <= x < 1:
        raise DomainError("canonical layout needs 0 <= x < 1")
    if model.kind == "luroth":
        if exact:
            x = Fraction(x)
            k = int(Fraction(1) / (1 - x))
            return k, k * (k + 1) * x - (k * k - 1)
        k = int(1.0 / (1.0 - x))
        return k, k * (k + 1.0) * x - (k * k - 1.0)
    x = float(x)
    k = _canonical_digit_float(model, x)
    left = _branch_left_float(model, k, "canonical")
    return k, (x - left) / weight(model, k)


def _canonical_digit_float(model: WeightModel, x: float) -> int:
    size = 1 << 10
    while True:
        table = _cum_table(model, size)
        idx = int(np.searchsorted(table, x, side="right"))
        if idx < table.size:
            return idx + 1
        size *= 2


# -- series evaluation ----------------------------------------------------------


def luroth_series_eval(values, terms: int | None = None) -> Fraction:
    """Partial sum of ``sum_n 1/(d_n * prod_{j<n} d_j (d_j - 1))``.

    ``values`` are the traditional digit values ``d = k + 1 >= 2``.
    """
    digits = tuple(int(d) for d in values)
    if any(d < 2 for d in digits):
        raise DomainError("classical digits must be at least 2")
    if terms is None:
        terms = len(digits)
    if terms < 0 or terms > len(digits):
        raise DomainError("terms must lie in [0, len(word)]")
    total = Fraction(0)
    scale = Fraction(1)
    for i in range(terms):
        d = digits[i]
        total += scale / d
        scale /= d * (d - 1)
    return total


# -- wire formats ---------------------------------------------------------------


def word_to_line(word) -> str:
    return ",".join(map(str, np.asarray(word, dtype=np.int64).tolist()))


def word_from_line(line: str) -> tuple[int, ...]:
    line = line.strip()
    if not line:
        return ()
    try:
        return _check_word(int(tok) for tok in line.split(","))
    except ValueError as exc:
        raise DomainError(f"bad digit-word line {line!r}") from exc


def _csv_cells(column) -> Iterator[str]:
    if isinstance(column, np.ndarray):
        return map(repr if column.dtype.kind == "f" else str, column.tolist())
    return ("" if v is None else float.__repr__(v) if isinstance(v, float) else str(v)
            for v in column)


def csv_chunks(columns: dict) -> Iterator[str]:
    """CSV text of equally long named columns: the header line, then chunks of rows.

    Floats are written with ``repr``, ints with ``str``, strings as they are
    and ``None`` as an empty cell.  Every chunk ends with a newline.
    """
    yield ",".join(columns) + "\n"
    rows = len(next(iter(columns.values()), ()))
    for start in range(0, rows, CSV_CHUNK_ROWS):
        cells = [_csv_cells(col[start : start + CSV_CHUNK_ROWS]) for col in columns.values()]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"
