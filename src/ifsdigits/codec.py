"""Input readers and wire formats: counts, digit words, text lines and chunked CSV.

:func:`as_count` is the one reader of a count, size, index or seed, and
:func:`as_word` the one reader of a digit word: every function that takes
one reads it there.  The word's integral check, :func:`as_integers`, also
reads profile tables.  A word is written as one line of
comma-separated positive integers (``3,1,4``); the empty word is the empty
line.  Tables are written column by column through :func:`csv_chunks`, a
chunk of rows at a time.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .errors import DomainError

__all__ = ["as_count", "as_integers", "as_word", "word_to_line", "word_from_line", "csv_chunks"]

# Rows per chunk of CSV text, so a million-row table never sits in memory as text.
CSV_CHUNK_ROWS = 8192


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
    return ",".join(map(str, as_word(word).tolist()))


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
