"""Graph symmetry analysis through the adjacency matrix.

Automorphisms are the permutation matrices commuting with the adjacency
matrix; they are found by exact integer backtracking.  A vertex map is a
read-only 1-D int32 array ``m``, vertex i going to ``m[i]``; its matrix P,
with P A P^T = A for an automorphism, is ``p[m, np.arange(n)] = 1``.
Because the adjacency matrix is symmetric, a graph also carries a
continuous orthogonal symmetry group, which usually contains far more than
the permutations: even a graph with trivial automorphism group has "hidden"
orthogonal symmetries whenever its spectrum is degenerate -- and the full
sign group regardless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, LimitExceededError, SizeCapError, StructureError
from .isotropy import sample_gamma
from .spectral import SpectralDecomposition, eig_sym, isospectral

EXACT_SEARCH_MAX_N = 12
PERMUTATION_TOL = 1e-6
DEFAULT_AUT_LIMIT = 10000
# the most vertices an edge list may name: its float64 adjacency is 512 MiB
MAX_EDGE_LIST_N = 1 << 13
# the graph search: about how many entries the arrays of one step hold, and
# how many int32 images (4 MiB) its stack of levels holds
_BATCH = 1 << 16
_HOLD = 1 << 20


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph stored as a 0/1 adjacency matrix with zero
    diagonal, held as a read-only float64 array."""

    adjacency: np.ndarray

    def __post_init__(self):
        # the one check of an adjacency matrix; a read-only float64 array
        # is kept as it is, anything else is copied once, with -0.0 stored
        # as +0.0 so that LAPACK sees the bits of the integers
        a = np.asarray(self.adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"adjacency must be square, got shape {a.shape}")
        if not ((a == 0) | (a == 1)).all():
            raise StructureError("adjacency entries must be 0 or 1")
        if np.any(np.diag(a) != 0):
            raise StructureError("self-loops are not allowed (nonzero diagonal)")
        if not np.array_equal(a, a.T):
            raise StructureError("adjacency must be symmetric")
        if a.dtype != np.float64 or a.flags.writeable or np.signbit(a).any():
            a = np.add(a, 0.0, dtype=np.float64, casting="unsafe")
            a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @classmethod
    def from_edges(cls, edges, n: int | None = None) -> Graph:
        edges = [(int(u), int(v)) for u, v in edges]
        if min(map(min, edges), default=0) < 0:
            raise StructureError("vertex indices must be nonnegative")
        size = max(map(max, edges), default=-1) + 1
        if n is not None:
            if n < size:
                raise StructureError(f"n={n} too small for edge indices up to {size - 1}")
            size = n
        if size > MAX_EDGE_LIST_N:
            raise SizeCapError(
                f"vertex index {size - 1} needs {size} vertices; edge lists are capped at {MAX_EDGE_LIST_N}"
            )
        a = np.zeros((size, size))
        loop = next((e for e in edges if e[0] == e[1]), None)
        if loop is not None:
            raise StructureError(f"self-loop {loop[0]}-{loop[1]} is not allowed")
        if edges:
            u, v = np.array(edges).T
            a[u, v] = a[v, u] = 1
        a.setflags(write=False)
        return cls(a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def edges(self) -> list[tuple[int, int]]:
        iu, ju = np.nonzero(np.triu(self.adjacency))
        return [(int(u), int(v)) for u, v in zip(iu, ju)]


def _signatures(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """Ascending neighbours (those of v are ``cols[ptr[v]:ptr[v + 1]]``),
    and per vertex its degree plus sorted neighbour degrees: an exact
    invariant used only to prune candidate images, never to accept one."""
    rows, cols = np.nonzero(a)
    deg = np.bincount(rows, minlength=a.shape[0])
    ptr = np.concatenate(([0], np.cumsum(deg)))
    # neighbour degrees sorted within each row (rows is already ascending)
    nbr_deg = deg[cols][np.lexsort((deg[cols], rows))].tolist()
    bounds = ptr.tolist()
    signatures = [(hi - lo, tuple(nbr_deg[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    return cols.astype(np.int32), ptr, signatures


def _search_maps(a: np.ndarray, b: np.ndarray, limit: int | None, first_only: bool) -> np.ndarray:
    """Backtracking search for vertex maps with b[m(u), m(v)] == a[u, v],
    one (k, n) int32 array with a map per row, in the order found.

    Each vertex of ``a`` may go only to the vertices of ``b`` of equal
    signature.  A vertex whose class in ``b`` has one vertex is forced:
    every map sends it there.  The forced vertices are placed first, as one
    prefix checked in one step (distinct images, and the same edges among
    them, over the edge lists), and the search branches on the others only,
    in order of descending degree (ties by index), each trying the images
    ``w`` of its class in ascending order.  A partial map m at position
    ``pos`` accepts ``w`` iff ``w`` is unused, is adjacent in ``b`` to
    m(order[j]) for every earlier position j adjacent in ``a`` to
    order[pos], and has no other placed image as a neighbour.  Exact
    integer arithmetic throughout.

    Every leaf agrees on the forced positions, and the branching positions
    keep their order among themselves, so the leaves and their order are
    those of placing every vertex in order of descending degree.  A graph
    with no forced vertex, such as a regular one, keeps that very tree.

    The search is depth-first over partial maps, held as rows of int32
    images in position order on an explicit stack with one level per depth,
    so the size of the graph meets no recursion limit.  One numpy step tests
    every candidate of a slice of rows of the deepest level at once and
    pushes the accepted children, by parent and then by ascending ``w``, as
    the next level.  So the tree below the prefix, the order of its leaves,
    the first map found and the point where LimitExceededError is raised
    are those of placing one image at a time.

    Memory: a level holds at most ``max(_HOLD // n, pos + 1)`` images (a
    step keeps at most that many children, but at least one, and the next
    step resumes after the last child kept), and it is dropped as soon as
    its last row is expanded; the prefix is one row of at most n images.
    The stack therefore holds at most ``_HOLD + n(n + 1)/2`` images, and
    O(1) levels for a chain-shaped tree such as a long path's.  A step
    expands about ``_BATCH // max(n, class size * degree)`` rows, so its
    arrays hold O(max(_BATCH, n, edges of b)) entries, and the prefix check
    O(n + edges)."""
    n = a.shape[0]
    cols_a, ptr_a, sig_a = _signatures(a)
    cols_b, ptr_b, sig_b = (cols_a, ptr_a, sig_a) if b is a else _signatures(b)
    # per signature of ``b``: its vertices, ascending
    by_sig: dict[tuple, list[int]] = {}
    for w, sig in enumerate(sig_b):
        by_sig.setdefault(sig, []).append(w)
    classes = [by_sig.get(sig) for sig in sig_a]
    if None in classes:
        return np.empty((0, n), dtype=np.int32)  # a vertex with no candidate image
    deg_a = np.diff(ptr_a)
    order = np.argsort(-deg_a, kind="stable")
    forced = np.array([len(ws) == 1 for ws in classes], dtype=bool)
    order = np.concatenate((order[forced[order]], order[~forced[order]]))
    f = int(np.count_nonzero(forced))
    prefix = np.array([classes[v][0] for v in order[:f].tolist()], dtype=np.int32)
    if b is not a and not _prefix_fits(b, order[:f], prefix, cols_a, ptr_a, cols_b, ptr_b):
        return np.empty((0, n), dtype=np.int32)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    # earlier[pos - f]: the positions j < pos adjacent in ``a`` to
    # order[pos], for the branching positions pos >= f
    src = rank[np.repeat(np.arange(n), deg_a)]
    dst = rank[cols_a]
    back = (dst < src) & (src >= f)
    src, dst = src[back] - f, dst[back]
    bounds = np.cumsum(np.bincount(src, minlength=n - f))[:-1]
    earlier = np.split(dst[np.argsort(src, kind="stable")], bounds)
    # per class of a branching vertex: its vertices, and their neighbours
    # as one (degree, size) table, since the signature fixes the degree
    tables = {}
    steps = []
    for pos, v in enumerate(order[f:].tolist(), start=f):
        sig = sig_a[v]
        if sig not in tables:
            cand = np.array(classes[v], dtype=np.int32)
            tables[sig] = (cand, cols_b[ptr_b[cand] + np.arange(sig[0])[:, None]])
        cand, nbrs = tables[sig]
        # how many maps one step expands, and how many children it keeps
        keep = max(1, _HOLD // (n * (pos + 1)))
        width = min(keep, max(1, _BATCH // max(n, nbrs.size)))
        steps.append((cand, nbrs, earlier[pos - f], width, keep))

    found: list[np.ndarray] = []
    count = 0
    rows = np.arange(max((step[3] for step in steps), default=1))[:, None]
    # a placed image weighs 1 if it is that of a position in e and n if
    # not, so a sum over the at most n - 1 neighbours of w stays below n^2
    total = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    levels = [[prefix[None], 0]]  # [maps, next (map, candidate) pair]
    while levels:
        level = levels[-1]
        maps, start = level
        pos = maps.shape[1]
        if pos == n:
            levels.pop()
            leaves = maps[:1] if first_only else maps
            # row entries are images by position; vertex v sits at rank[v]
            found.append(leaves[:, rank])
            count += len(leaves)
            if limit is not None and count > limit:
                raise LimitExceededError(
                    f"more than {limit} automorphisms found; raise the limit"
                )
            if first_only:
                break
            continue
        cand, nbrs, e, width, keep = steps[pos - f]
        size = len(cand)
        first, skip = divmod(start, size)
        parents = maps[first : first + width]
        k = len(parents)
        # per parent and vertex of b: 1 for the image of a position in e, n
        # for any other placed image, 0 if unplaced; so the sum over the
        # neighbours of w is len(e) iff w is adjacent to every image of e
        # and to no other placed image
        weight = np.full(pos, n, dtype=total)
        weight[e] = 1
        mark = np.zeros((k, n), dtype=total)
        mark[rows[:k], parents] = weight
        ok = mark[:, nbrs].sum(axis=1, dtype=total) == len(e)
        ok &= mark[:, cand] == 0
        if skip:
            ok[0, :skip] = False  # tried by the previous step
        # (parent, candidate) pairs, numbered from the first parent
        hits = np.flatnonzero(ok)
        if len(hits) > keep:
            hits = hits[:keep]
            level[1] = first * size + int(hits[-1]) + 1
        else:
            level[1] = (first + k) * size
        if level[1] == len(maps) * size:
            levels.pop()
        if len(hits):
            parent, w = np.divmod(hits, size)
            levels.append([np.concatenate((parents[parent], cand[w][:, None]), axis=1), 0])
    return np.concatenate(found) if found else np.empty((0, n), dtype=np.int32)


def _prefix_fits(b, forced, images, cols_a, ptr_a, cols_b, ptr_b) -> bool:
    """True iff sending the vertices ``forced`` of ``a`` to ``images`` in
    ``b`` is one-to-one and keeps edges and non-edges among them: each edge
    of ``a`` among them goes to an edge of ``b``, and ``b`` has no other
    edge among the images.  O(n + edges) memory, never an f x f block."""
    n = len(b)
    hit = np.zeros(n, dtype=bool)
    hit[images] = True
    if np.count_nonzero(hit) < len(images):
        return False  # two forced vertices need the same image
    at = np.full(n, -1, dtype=np.intp)
    at[forced] = images
    src, dst = at[np.repeat(np.arange(n), np.diff(ptr_a))], at[cols_a]
    inner = (src >= 0) & (dst >= 0)
    if not b[src[inner], dst[inner]].all():
        return False
    inner_b = hit[np.repeat(np.arange(n), np.diff(ptr_b))] & hit[cols_b]
    return np.count_nonzero(inner_b) == np.count_nonzero(inner)


def automorphisms(graph: Graph, limit: int = DEFAULT_AUT_LIMIT) -> np.ndarray:
    """All permutations P with P A = A P, exactly, as the rows of one
    read-only (k, n) int32 array in ascending lexicographic order.

    Backtracking with signature pruning: each vertex whose degree
    signature no other vertex shares is fixed first, in one step, and the
    rest branch in order of descending degree, a batch of partial maps per
    numpy step.  Every map fixes those vertices, so the leaves come in the
    order of placing one image at a time in degree order (exact for any n,
    practical at desk scale).  It has no recursion limit, and its stack
    holds at most 2^20 + n(n + 1)/2 int32 images.  Aborts with
    LimitExceededError if more than ``limit`` automorphisms exist, and with
    ValueError if ``limit`` is negative.
    """
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    maps = _search_maps(graph.adjacency, graph.adjacency, limit, first_only=False)
    if len(maps) > 1:
        # big-endian rows of nonnegative ints compare as byte strings in the
        # order of their entries; np.lexsort, with one key per column, holds
        # about 3 KB per vertex
        rows = np.ascontiguousarray(maps, dtype=">i4").view(f"V{4 * graph.n}")
        maps = maps[np.argsort(rows.ravel())]
    maps.setflags(write=False)
    return maps


def find_isomorphism(ga: Graph, gb: Graph) -> Optional[np.ndarray]:
    """A vertex bijection m carrying the first graph onto the second, so
    that ``gb.adjacency[np.ix_(m, m)] == ga.adjacency``, as a read-only
    int32 array, or None.

    The checks run in this order: graphs of different sizes give None;
    a pair above n = 12 raises SizeCapError, before any spectrum is
    computed; then isospectrality (necessary for isomorphism) is checked
    on the eigenvalues alone, within 1e-8 * max(1, ||A||_F); and the exact
    backtracking search runs only when the spectra agree.  The map returned
    is the first leaf of the search tree in depth-first order; the search
    fixes the vertices whose signature class in the second graph has one
    vertex first, then expands a batch of partial maps per numpy step, with
    the leaf order and the memory bound of ``automorphisms``.
    """
    if ga.n != gb.n:
        return None
    if ga.n > EXACT_SEARCH_MAX_N:
        raise SizeCapError(f"exact isomorphism search capped at n <= {EXACT_SEARCH_MAX_N}")
    tol = 1e-8 * max(1.0, float(np.linalg.norm(ga.adjacency)))
    if not isospectral(ga.adjacency, gb.adjacency, tol):
        return None
    maps = _search_maps(ga.adjacency, gb.adjacency, limit=None, first_only=True)
    if not len(maps):
        return None
    m = maps[0]
    if not (
        np.array_equal(np.sort(m), np.arange(ga.n))
        and np.array_equal(gb.adjacency[np.ix_(m, m)], ga.adjacency)
    ):
        raise StructureError(f"search returned a map that is not an isomorphism: {m.tolist()}")
    m.setflags(write=False)
    return m


def is_permutation(p, tol: float = PERMUTATION_TOL) -> Optional[np.ndarray]:
    """Recover the vertex map m of a numeric matrix P, with P[m[i], i] = 1,
    as a read-only int32 array, or None.

    Succeeds iff every entry is within ``tol`` of 0 or 1 and there is exactly
    one 1 per row and per column.
    """
    m = np.asarray(p, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return None
    near_one = np.abs(m - 1.0) <= tol
    near_zero = np.abs(m) <= tol
    if not np.all(near_one | near_zero):
        return None
    ones = near_one.astype(int)
    if np.any(ones.sum(axis=0) != 1) or np.any(ones.sum(axis=1) != 1):
        return None
    m = np.argmax(ones, axis=0).astype(np.int32)
    m.setflags(write=False)
    return m


def adjacency_decomposition(graph: Graph, cluster_tol: float | None = None) -> SpectralDecomposition:
    """Eigendecomposition of the adjacency matrix."""
    return eig_sym(graph.adjacency, cluster_tol=cluster_tol)


def hidden_symmetry_sample(graph: Graph, seed: int) -> np.ndarray:
    """A Haar-sampled orthogonal symmetry of the adjacency matrix, read-only.

    The sample commutes with the adjacency matrix but is generically not a
    permutation: these are symmetries of the graph spectrum that the vertex
    relabelings cannot see.
    """
    return sample_gamma(adjacency_decomposition(graph), seed)
