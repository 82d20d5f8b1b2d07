"""Plain-text matrix and vector files.

Matrix files carry an order line followed by n whitespace-separated rows;
vector files carry one number per line.  Lines whose first non-blank
character is ``#`` are comments.  Writers emit 17 significant digits so
values round-trip bit-for-bit through the parser.

::

    # a 3x3 example
    3
    1 2 1
    1 1 0
    2 8 1
"""
from __future__ import annotations

import math

import numpy as np

from .errors import MatrixFormatError

DIGITS = 17


#: Formats one Python float with DIGITS significant digits.
_fmt = f"{{:.{DIGITS}g}}".format


def format_matrix(a) -> str:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    lines = [str(a.shape[0])]
    lines += [" ".join(map(_fmt, row)) for row in a.tolist()]
    return "\n".join(lines) + "\n"


def format_vector(b) -> str:
    b = np.asarray(b, dtype=float).reshape(-1)
    return "\n".join(map(_fmt, b.tolist())) + "\n"


def _data_lines(text: str):
    """Yield (line_number, content) for non-comment, non-blank lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, raw


def _parse_float(token: str, lineno: int, column: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MatrixFormatError(f"cannot parse {token!r} as a number",
                                lineno, column) from None
    if not math.isfinite(value):
        raise MatrixFormatError(f"non-finite value {token!r}", lineno, column)
    return value


def _tokens_with_columns(raw: str):
    """Split a line, keeping the 1-based character column of each token."""
    out = []
    pos = 0
    for token in raw.split():
        col = raw.index(token, pos)
        out.append((token, col + 1))
        pos = col + len(token)
    return out


def parse_matrix(text: str) -> np.ndarray:
    """Parse matrix-file text; errors carry the offending line and column.

    The rows are converted whole, one ``float`` per token and one
    finiteness check; only a file that fails them is walked again token
    by token (:func:`_parse_rows`) to find the first offending position.
    """
    lines = list(_data_lines(text))
    if not lines:
        raise MatrixFormatError("missing order line", 0, 0)
    lineno, raw = lines[0]
    header = _tokens_with_columns(raw)
    if len(header) != 1:
        raise MatrixFormatError("the order line must hold a single integer",
                                lineno, header[1][1] if len(header) > 1 else 0)
    token, col = header[0]
    try:
        n = int(token)
    except ValueError:
        raise MatrixFormatError(f"cannot parse order {token!r}", lineno,
                                col) from None
    if n < 1:
        raise MatrixFormatError(f"order must be positive, got {n}", lineno, col)
    rows = lines[1:]
    if len(rows) < n:
        last = rows[-1][0] if rows else lineno
        raise MatrixFormatError(f"expected {n} rows, found {len(rows)}",
                                last + 1, 0)
    if len(rows) > n:
        raise MatrixFormatError(f"expected {n} rows, found {len(rows)}",
                                rows[n][0], 0)
    try:
        out = np.array([[float(t) for t in raw_row.split()] for _, raw_row in rows])
    except ValueError:
        out = None
    if out is not None and out.shape == (n, n) and np.isfinite(out).all():
        return out
    return _parse_rows(rows, n)


def _parse_rows(rows, n: int) -> np.ndarray:
    """Token-by-token parse of the n data rows, raising at the first fault."""
    out = np.empty((n, n))
    for i, (rlineno, raw_row) in enumerate(rows):
        tokens = _tokens_with_columns(raw_row)
        if len(tokens) != n:
            where = tokens[n][1] if len(tokens) > n else 0
            raise MatrixFormatError(
                f"row {i + 1} has {len(tokens)} entries, expected {n}",
                rlineno, where)
        for j, (token, col) in enumerate(tokens):
            out[i, j] = _parse_float(token, rlineno, col)
    return out


def parse_vector(text: str) -> np.ndarray:
    """Parse vector-file text (one number per line); converted whole as
    :func:`parse_matrix` is, and walked line by line only to raise."""
    lines = list(_data_lines(text))
    try:
        out = np.array([float(t) for _, raw in lines for t in raw.split()])
    except ValueError:
        out = None
    if out is not None and 0 < out.size == len(lines) and np.isfinite(out).all():
        return out
    values = []
    for lineno, raw in lines:
        tokens = _tokens_with_columns(raw)
        if len(tokens) != 1:
            raise MatrixFormatError("expected one number per line", lineno,
                                    tokens[1][1])
        token, col = tokens[0]
        values.append(_parse_float(token, lineno, col))
    if not values:
        raise MatrixFormatError("empty vector file", 0, 0)
    return np.array(values)


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def read_vector(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_vector(fh.read())


def write_matrix(path, a) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(a))


def write_vector(path, b) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_vector(b))
