"""Shared text formats: square matrices and graphs.

Matrix files hold n lines of n whitespace- or comma-separated numbers;
lines starting with '#' are comments.  Graphs are either an adjacency
matrix in the same format or an edge list with one "u v" pair per line
(0-indexed).  Numbers are emitted as shortest round-trip decimals, so an
emit/parse cycle reproduces every entry exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InputFormatError
from .graphsym import Graph


def _read_lines(source) -> list[tuple[int, str]]:
    """(line_number, content) pairs with comments and blank lines dropped."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((lineno, stripped))
    return out


def _tokenize(line: str) -> list[str]:
    return line.replace(",", " ").split()


def parse_matrix(source) -> np.ndarray:
    """Parse a square matrix from a path or readable stream."""
    lines = _read_lines(source)
    if not lines:
        raise InputFormatError("no matrix data found (file empty?)")
    n = len(lines)
    rows = []
    for row_index, (lineno, line) in enumerate(lines, start=1):
        tokens = _tokenize(line)
        if len(tokens) != n:
            raise InputFormatError(
                f"row {row_index} has {len(tokens)} values, expected {n}",
                line=lineno,
            )
        try:
            rows.append([float(t) for t in tokens])
        except ValueError as exc:
            raise InputFormatError(f"non-numeric token: {exc}", line=lineno) from None
    return np.array(rows)


def format_matrix(a) -> str:
    """Emit with full round-trip precision, one row per line."""
    m = np.asarray(a, dtype=float)
    return "\n".join(" ".join(repr(float(x)) for x in row) for row in m) + "\n"


def parse_graph(source) -> Graph:
    """Parse a graph from either format.

    A square 0/1 symmetric zero-diagonal block of numbers is read as an
    adjacency matrix; anything else is read as an edge list of "u v" lines.
    """
    lines = _read_lines(source)
    if not lines:
        raise InputFormatError("no graph data found (file empty?)")
    rows = [_tokenize(line) for _, line in lines]
    n = len(rows)
    if all(len(tokens) == n for tokens in rows):
        try:
            a = np.array([[float(t) for t in tokens] for tokens in rows])
        except ValueError:
            pass
        else:
            if ((a == 0) | (a == 1)).all() and not a.diagonal().any() and np.array_equal(a, a.T):
                return Graph(a.astype(np.int64))
    edges = []
    for (lineno, line), tokens in zip(lines, rows):
        if len(tokens) != 2:
            raise InputFormatError(
                f"expected an edge 'u v', got {len(tokens)} tokens", line=lineno
            )
        try:
            edges.append((int(tokens[0]), int(tokens[1])))
        except ValueError:
            raise InputFormatError(
                f"non-integer vertex in edge {line!r}", line=lineno
            ) from None
    return Graph.from_edges(edges)
