"""Wire formats: digit words as text lines, and named columns as chunked CSV.

A digit word is written as one line of comma-separated positive integers
(``3,1,4``); the empty word is the empty line.  Tables are written column
by column through :func:`csv_chunks`, a chunk of rows at a time.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import DomainError

__all__ = ["word_to_line", "word_from_line", "csv_chunks"]

# Rows per chunk of CSV text, so a million-row table never sits in memory as text.
CSV_CHUNK_ROWS = 8192


def word_to_line(word) -> str:
    return ",".join(map(str, np.asarray(word, dtype=np.int64).tolist()))


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
