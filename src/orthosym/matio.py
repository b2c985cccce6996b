"""Shared text formats: square matrices and graphs.

Matrix files hold n lines of n whitespace- or comma-separated numbers;
lines starting with '#' are comments.  Graphs are either an adjacency
matrix in the same format or an edge list with one "u v" pair per line
(0-indexed).  Parsing is exact: a matrix written with shortest round-trip
decimals, as ``repr`` gives them, reads back bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputFormatError, StructureError

if TYPE_CHECKING:
    from .graphsym import Graph


def _read_text(source) -> str:
    if hasattr(source, "read"):
        return source.read()
    return Path(source).read_text()


def _lines(text: str) -> list[tuple[int, str]]:
    """(line_number, content) pairs with comments and blank lines dropped."""
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
    """Parse a square matrix from a path or readable stream.

    The text is read on every call; the last two texts parsed are
    remembered, so a file read again unchanged is not parsed again.  The
    result is a fresh writable array either way."""
    return _parse_matrix_text(_read_text(source)).copy()


# keyed by the exact text; an error is not stored, so it is raised again
@functools.lru_cache(maxsize=2)
def _parse_matrix_text(text: str) -> np.ndarray:
    lines = _lines(text)
    if not lines:
        raise InputFormatError("no matrix data found (file empty?)")
    m = _read_matrix(lines)
    m.setflags(write=False)
    return m


def _read_matrix(lines: list[tuple[int, str]]) -> np.ndarray:
    """The n x n float64 matrix of n (line_number, content) pairs, filled a
    row at a time; numpy reads each token with ``float()``'s rules and
    error text.  The first bad row in file order raises."""
    n = len(lines)
    # a row of n tokens is at least 2n - 1 characters long: a text too short
    # for n such rows (an edge list) must raise, so it fills one row only
    size = n if sum(len(line) for _, line in lines) >= n * (2 * n - 1) else 1
    out = np.empty((size, n))
    for row_index, (lineno, line) in enumerate(lines):
        tokens = _tokenize(line)
        if len(tokens) != n:
            raise InputFormatError(f"row {row_index + 1} has {len(tokens)} values, expected {n}", line=lineno)
        try:
            out[row_index % size] = tokens
        except ValueError as exc:
            raise InputFormatError(f"non-numeric token: {exc}", line=lineno) from None
    return out


def parse_graph(source) -> Graph:
    """Parse a graph from either format.

    A square 0/1 symmetric zero-diagonal matrix is read as an adjacency
    matrix; anything else is read as an edge list of "u v" lines.
    """
    # imported here, so that reading a matrix does not load the graph search
    from .graphsym import Graph

    lines = _lines(_read_text(source))
    if not lines:
        raise InputFormatError("no graph data found (file empty?)")
    # read-only, so that Graph keeps it; a matrix it rejects is an edge list
    with contextlib.suppress(InputFormatError, StructureError):
        a = _read_matrix(lines)
        a.setflags(write=False)
        return Graph(a)
    edges = []
    for lineno, line in lines:
        tokens = _tokenize(line)
        if len(tokens) != 2:
            raise InputFormatError(f"expected an edge 'u v', got {len(tokens)} tokens", line=lineno)
        try:
            edges.append((int(tokens[0]), int(tokens[1])))
        except ValueError:
            raise InputFormatError(f"non-integer vertex in edge {line!r}", line=lineno) from None
    return Graph.from_edges(edges)
