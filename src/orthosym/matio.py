"""Shared text formats: square matrices and graphs.

Matrix files hold n lines of n whitespace- or comma-separated numbers;
lines starting with '#' are comments.  Graphs are either an adjacency
matrix in the same format or an edge list with one "u v" pair per line
(0-indexed).  Numbers are emitted as shortest round-trip decimals, so an
emit/parse cycle reproduces every entry exactly.
"""

from __future__ import annotations

import io
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


def parse_matrix_text(text: str) -> np.ndarray:
    return parse_matrix(io.StringIO(text))


def format_matrix(a) -> str:
    """Emit with full round-trip precision, one row per line."""
    m = np.asarray(a, dtype=float)
    return "\n".join(" ".join(repr(float(x)) for x in row) for row in m) + "\n"


def _looks_like_adjacency(rows: list[list[float]]) -> bool:
    n = len(rows)
    if any(len(r) != n for r in rows):
        return False
    a = np.array(rows)
    return (
        bool(np.isin(a, (0.0, 1.0)).all())
        and not np.any(np.diag(a) != 0)
        and np.array_equal(a, a.T)
    )


def parse_graph(source) -> Graph:
    """Parse a graph from either format.

    A square 0/1 symmetric zero-diagonal block of numbers is read as an
    adjacency matrix; anything else is read as an edge list of "u v" lines.
    """
    lines = _read_lines(source)
    if not lines:
        raise InputFormatError("no graph data found (file empty?)")
    parsed = []
    numeric = True
    for lineno, line in lines:
        tokens = _tokenize(line)
        try:
            parsed.append((lineno, [float(t) for t in tokens]))
        except ValueError:
            numeric = False
            break
    if numeric and _looks_like_adjacency([vals for _, vals in parsed]):
        return Graph(np.array([vals for _, vals in parsed], dtype=np.int64))
    edges = []
    for lineno, line in lines:
        tokens = _tokenize(line)
        if len(tokens) != 2:
            raise InputFormatError(
                f"expected an edge 'u v', got {len(tokens)} tokens", line=lineno
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise InputFormatError(
                f"non-integer vertex in edge {line!r}", line=lineno
            ) from None
        edges.append((u, v))
    return Graph.from_edges(edges)
