"""On-disk formats.  A table is UTF-8 text with LF line endings: a header
line naming the columns (replay buffers have none), then one comma-separated
row per line, integer columns as ints and the rest as ``repr(float)`` so a
read-back is value-identical.  JSON is indented by two, keys sorted, with a
trailing newline.
"""

import itertools
import json
from array import array

import numpy as np

from .errors import ParseError

ROW_BLOCK = 4096  # rows per tolist() while writing, to bound temporaries


def write_table(path: str, header: str | None, columns) -> None:
    """Write equal-length ``columns`` as rows under ``header`` (None: no header)."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(header + "\n")
        for lo in range(0, len(columns[0]), ROW_BLOCK):
            block = [c[lo:lo + ROW_BLOCK].tolist() for c in columns]
            fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*block))


def read_table(path: str, header: str | None) -> np.ndarray:
    """The rows under ``header`` as an ``(n, ncol)`` float64 array.

    With ``header=None`` there is no header line and the first row sets the
    column count.  Blank lines are skipped.  A wrong header, column count or
    non-numeric field is a ParseError naming ``file:line``.
    """
    values = array("d")
    ncol = 0 if header is None else header.count(",") + 1
    with open(path, "r", encoding="utf-8") as fh:
        if header is not None:
            first = fh.readline().rstrip("\n")
            if first != header:
                raise ParseError(f"{path}:1: expected header {header!r}, got {first!r}")
        for lineno, line in enumerate(fh, start=1 if header is None else 2):
            if not line.strip():
                continue
            parts = line.split(",")
            ncol = ncol or len(parts)
            if len(parts) != ncol:
                raise ParseError(f"{path}:{lineno}: expected {ncol} columns, "
                                 f"got {len(parts)}")
            try:
                values.extend(map(float, parts))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric field in "
                                 f"{line.rstrip()!r}") from None
    return np.frombuffer(values, dtype=float).reshape(-1 if ncol else 0, ncol)


def row_line(path: str, header: str | None, k: int) -> int:
    """The file line of data row ``k`` of a table that read_table accepted,
    counting past blank lines.  It reads the file again, so it is meant for
    error messages only."""
    with open(path, "r", encoding="utf-8") as fh:
        if header is not None:
            fh.readline()
        rows = (lineno for lineno, line in
                enumerate(fh, start=1 if header is None else 2) if line.strip())
        return next(itertools.islice(rows, k, None))


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str):
    """Parse the JSON file at ``path``; a syntax error is a ParseError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from None
