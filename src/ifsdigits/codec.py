"""Input readers and wire formats: counts, digit words, text lines and chunked CSV.

:func:`as_count` is the one reader of a count, size, index or seed,
:func:`as_rate` the one reader of a linear rate ``theta``, and
:func:`as_word` the one reader of a digit word: every function that takes
one reads it there.  The word's integral check, :func:`as_integers`, also
reads profile tables.  A word is written as one line of
comma-separated positive integers (``3,1,4``); the empty word is the empty
line.  :func:`write_word` writes that line a chunk of digits at a time, and
tables are written column by column through :func:`csv_chunks`, a chunk of
rows at a time.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = [
    "as_count", "as_integers", "as_rate", "as_word", "word_to_line", "write_word",
    "word_from_line", "csv_chunks",
]

# Rows per chunk of CSV text, and digits per chunk of a word line, so that a
# million-row table or word never sits in memory as text or Python objects.
CSV_CHUNK_ROWS = 2048


def as_count(value, what: str, least: int = 1) -> int:
    """``value`` as an int; :class:`DomainError` unless it is an integer of at least ``least``.

    Python and numpy integers are read; bools and floats, integral ones too, are not.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise DomainError(f"{what} is not an integer: {value!r}")
    if value < least:
        rule = {0: "a non-negative integer", 1: "a positive integer"}.get(least)
        raise DomainError(f"{what} must be {rule or f'at least {least}'}, got {int(value)}")
    return int(value)


def as_rate(theta) -> Fraction:
    """Normalize a target rate to an exact ``Fraction`` in ``(0, 1]``.

    Floats are interpreted through their shortest decimal representation,
    so ``as_rate(0.3) == Fraction(3, 10)``.  NaN and infinite rates raise
    :class:`DomainError`.
    """
    try:
        theta = Fraction(str(theta)) if isinstance(theta, float) else Fraction(theta)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"the rate theta must be a finite number; got {theta!r}") from exc
    if not 0 < theta <= 1:
        raise DomainError("the rate theta must lie in (0, 1]")
    return theta


def as_integers(values, message: str) -> np.ndarray:
    """``values`` as int64; :class:`DomainError` with ``message`` unless each is an integer.

    Integral floats are accepted; an int64 array is returned as it is.
    """
    try:
        w = np.asarray(values)
        if w.dtype.kind in "iub":
            return w.astype(np.int64, copy=False)
        with np.errstate(invalid="ignore"):
            ints = w.astype(np.int64)
        integral = bool(np.all(ints == w))
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise DomainError(message)
    return ints


def as_word(word) -> np.ndarray:
    """``word`` as int64 digits; :class:`DomainError` unless each is a positive integer."""
    digits = as_integers(word, "digits must be positive integers; the word holds other values")
    if digits.size and digits.min() < 1:
        raise DomainError("digits must be positive integers")
    return digits


def word_to_line(word) -> str:
    """``word`` as one line of comma-separated digits, without the newline.

    The line is joined from the text of ``CSV_CHUNK_ROWS`` digits at a time.
    """
    digits = as_word(word)
    return ",".join(",".join(map(str, digits[start : start + CSV_CHUNK_ROWS].tolist()))
                    for start in range(0, digits.size, CSV_CHUNK_ROWS))


def write_word(path, word) -> None:
    """Write ``word_to_line(word)`` and a newline to ``path``, a chunk of digits at a time."""
    digits = as_word(word)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, digits.size, CSV_CHUNK_ROWS):
            fh.write(("," if start else "") + word_to_line(digits[start : start + CSV_CHUNK_ROWS]))
        fh.write("\n")


def word_from_line(line: str) -> tuple[int, ...]:
    line = line.strip()
    if not line:
        return ()
    try:
        digits = tuple(int(tok) for tok in line.split(","))
    except ValueError as exc:
        raise DomainError(f"bad digit-word line {line!r}") from exc
    if min(digits) < 1:
        raise DomainError(f"bad digit-word line {line!r}")
    return digits


def _csv_cells(column) -> Iterable[str]:
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        # Each run of equal cells is formatted once.  Cells are compared by their
        # bits, so -0.0 and 0.0, and NaNs of other payloads, keep their own text.
        bits = column.view(f"u{column.itemsize}")
        head = np.ones(column.size, dtype=bool)
        np.not_equal(bits[1:], bits[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        fmt = repr if column.dtype.kind == "f" else str
        text = np.array(list(map(fmt, column[heads].tolist())), dtype=object)
        return np.repeat(text, np.diff(heads, append=column.size)).tolist()
    return ("" if v is None else float.__repr__(v) if isinstance(v, float) else str(v)
            for v in column)


def csv_chunks(columns: dict) -> Iterator[str]:
    """CSV text of equally long named columns: the header line, then chunks of rows.

    Floats are written with ``repr``, ints with ``str``, strings as they are
    and ``None`` as an empty cell.  In a numeric array column each run of
    equal cells is formatted once.  Every chunk ends with a newline.
    """
    yield ",".join(columns) + "\n"
    rows = len(next(iter(columns.values()), ()))
    for start in range(0, rows, CSV_CHUNK_ROWS):
        cells = [_csv_cells(col[start : start + CSV_CHUNK_ROWS]) for col in columns.values()]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"
