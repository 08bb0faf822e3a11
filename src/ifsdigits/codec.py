"""Digit words and wire formats: the word reader, text lines and chunked CSV.

:func:`as_word` is the one reader of a digit word: every function that takes
a word reads it there.  A word is written as one line of
comma-separated positive integers (``3,1,4``); the empty word is the empty
line.  Tables are written column by column through :func:`csv_chunks`, a
chunk of rows at a time.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import DomainError

__all__ = ["as_word", "word_to_line", "word_from_line", "csv_chunks"]

# Rows per chunk of CSV text, so a million-row table never sits in memory as text.
CSV_CHUNK_ROWS = 8192


def as_word(word) -> np.ndarray:
    """``word`` as int64 digits; :class:`DomainError` unless each is a positive integer.

    Integral floats are accepted; an int64 array is returned as it is.
    """
    w = np.asarray(word)
    if w.dtype.kind in "iub":
        digits = w.astype(np.int64, copy=False)
    else:
        try:
            with np.errstate(invalid="ignore"):
                digits = w.astype(np.int64)
            integral = bool(np.all(digits == w))
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise DomainError("digits must be positive integers; the word holds other values")
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
