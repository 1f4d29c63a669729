"""On-disk formats.  A table is UTF-8 text with LF line endings: a header
line naming the columns (replay buffers have none), then one comma-separated
row per line, integer columns as ints and the rest as ``repr(float)`` so a
read-back is value-identical.  JSON is strict (a non-finite float is null),
indented by two, keys sorted, with a trailing newline.
"""

import itertools
import json
import math
from array import array

import numpy as np

from .errors import ParseError, blamed

ROW_BLOCK = 4096  # rows formatted per block while writing, to bound temporaries


def write_table(path: str, header: str | None, columns) -> None:
    """Write equal-length ``columns`` as rows under ``header`` (None: no header)."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(header + "\n")
        for lo in range(0, len(columns[0]), ROW_BLOCK):
            cells = [_cells(c[lo:lo + ROW_BLOCK]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _cells(values: np.ndarray) -> list:
    """``repr`` of each element.  A float64 column formats each distinct bit
    pattern once (bits, so -0.0 stays apart from 0.0): logged commands are
    piecewise constant and repeat a handful of values over thousands of rows."""
    if values.dtype != np.float64:
        return list(map(repr, values.tolist()))
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse].tolist()


def read_table(path: str, header: str | None) -> np.ndarray:
    """The rows under ``header`` as an ``(n, ncol)`` float64 array.

    With ``header=None`` there is no header line and the first row sets the
    column count.  Blank lines are skipped.  A wrong header, column count or
    non-numeric field is a ParseError naming ``file:line``.

    The body is parsed in one ``np.loadtxt`` pass, whose accepted inputs and
    values are a subset of the line-by-line reader's.  Anything it refuses, a
    column count other than the header's, and a body that starts blank (where
    it would warn about empty input) go to that reader, which alone decides
    what else is accepted and words every diagnostic.
    """
    ncol = 0 if header is None else header.count(",") + 1
    with open(path, "r", encoding="utf-8") as fh:
        try:
            if header is None or fh.readline().rstrip("\n") == header:
                first = fh.readline()
                if first.strip():
                    rows = np.loadtxt(itertools.chain((first,), fh), delimiter=",",
                                      comments=None, dtype=float, ndmin=2)
                    if rows.shape[1] == (ncol or rows.shape[1]):
                        return rows
        except ValueError:
            pass
    return _read_table_by_line(path, header)


def _read_table_by_line(path: str, header: str | None) -> np.ndarray:
    """read_table one line at a time: the definition of what it accepts, and
    the only code that words its diagnostics."""
    values = array("d")
    ncol = 0 if header is None else header.count(",") + 1
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if header is not None:
                first = fh.readline().rstrip("\n")
                if first != header:
                    raise ParseError(f"{path}:1: expected header {header!r}, "
                                     f"got {first!r}")
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
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    return np.frombuffer(values, dtype=float).reshape(-1 if ncol else 0, ncol)


def read_record(path: str, header: str | None, build):
    """``build`` of the rows of the table at ``path``; a ValidationError with
    a row is raised again naming that row's ``file:line``."""
    rows = read_table(path, header)
    with blamed(lambda exc: None if exc.row is None
                else f"{path}:{row_line(path, header, exc.row)}"):
        return build(rows)


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
    """Write ``payload`` as strict JSON: a non-finite float (an infinite
    clearance, say) is written as null, never as ``Infinity`` or ``NaN``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _finite_or_null(value):
    """``value`` with every non-finite float in it, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def read_json(path: str):
    """Parse the JSON file at ``path``; a syntax or encoding error is a
    ParseError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except (ValueError, RecursionError) as exc:
        # a syntax error, an integer past int()'s digit limit, or nesting too deep
        raise ParseError(f"{path}: not valid JSON ({exc})") from None


def _not_utf8(path: str) -> ParseError:
    """A ParseError naming ``file:line`` of the file's first byte that is not
    UTF-8.  Text reads decode in chunks, so their error cannot place it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return ParseError(f"{path}:{line}: not valid UTF-8 "
                          f"(byte 0x{raw[exc.start]:02x})")
    return ParseError(f"{path}: not valid UTF-8")
