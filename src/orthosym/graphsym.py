"""Graph symmetry analysis through the adjacency matrix.

Automorphisms are the permutation matrices commuting with the adjacency
matrix; they are found by exact integer backtracking.  Because the
adjacency matrix is symmetric, a graph also carries a continuous orthogonal
symmetry group, which usually contains far more than the permutations: even
a graph with trivial automorphism group has "hidden" orthogonal symmetries
whenever its spectrum is degenerate -- and the full sign group regardless.
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
# the graph search: about how many entries the arrays of one step hold, and
# how many int32 images (4 MiB) its stack of levels holds
_BATCH = 1 << 16
_HOLD = 1 << 20


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph stored as a 0/1 adjacency matrix with zero
    diagonal."""

    adjacency: np.ndarray

    def __post_init__(self):
        # checked as given and copied once at the end, so that no more than
        # one n x n int64 array is ever held
        a = np.asarray(self.adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"adjacency must be square, got shape {a.shape}")
        if not ((a == 0) | (a == 1)).all():
            raise StructureError("adjacency entries must be 0 or 1")
        if np.any(np.diag(a) != 0):
            raise StructureError("self-loops are not allowed (nonzero diagonal)")
        if not np.array_equal(a, a.T):
            raise StructureError("adjacency must be symmetric")
        a = np.array(a, dtype=np.int64)
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
        a = np.zeros((size, size), dtype=np.int8)
        loop = next((e for e in edges if e[0] == e[1]), None)
        if loop is not None:
            raise StructureError(f"self-loop {loop[0]}-{loop[1]} is not allowed")
        if edges:
            u, v = np.array(edges).T
            a[u, v] = 1
            a[v, u] = 1
        return cls(a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def edges(self) -> list[tuple[int, int]]:
        iu, ju = np.nonzero(np.triu(self.adjacency))
        return [(int(u), int(v)) for u, v in zip(iu, ju)]


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., n-1}; ``mapping[i]`` is the image of i."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        m = tuple(int(i) for i in self.mapping)
        if sorted(m) != list(range(len(m))):
            raise StructureError(f"not a bijection on 0..{len(m) - 1}: {m}")
        object.__setattr__(self, "mapping", m)

    def __len__(self) -> int:
        return len(self.mapping)

    def to_matrix(self) -> np.ndarray:
        """Matrix P with P e_i = e_{mapping[i]}; P A = A P iff self is an
        automorphism of the graph with adjacency A."""
        n = len(self)
        p = np.zeros((n, n), dtype=np.int64)
        for i, j in enumerate(self.mapping):
            p[j, i] = 1
        return p


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


def _search_maps(a: np.ndarray, b: np.ndarray, limit: int | None, first_only: bool):
    """Backtracking search for vertex maps with b[m(u), m(v)] == a[u, v].

    Vertices of ``a`` are placed in order of descending degree (ties by
    index), each trying the images ``w`` of equal signature in ascending
    order.  A partial map m at position ``pos`` accepts ``w`` iff ``w`` is
    unused, is adjacent in ``b`` to m(order[j]) for every earlier position
    j adjacent in ``a`` to order[pos], and has no other placed image as a
    neighbour.  Exact integer arithmetic throughout.

    The search is depth-first over partial maps, held as rows of int32
    images in position order on an explicit stack with one level per depth,
    so the size of the graph meets no recursion limit.  One numpy step tests
    every candidate of a slice of rows of the deepest level at once and
    pushes the accepted children, by parent and then by ascending ``w``, as
    the next level.  So the tree, the order of its leaves, the first map
    found and the point where LimitExceededError is raised are those of
    placing one image at a time.

    Memory: a level holds at most ``max(_HOLD // n, pos + 1)`` images (a
    step keeps at most that many children, but at least one, and the next
    step resumes after the last child kept), and it is dropped as soon as
    its last row is expanded.  The stack therefore holds at most
    ``_HOLD + n(n + 1)/2`` images, and O(1) levels for a chain-shaped tree
    such as a long path's.  A step expands about ``_BATCH // max(n, class
    size * degree)`` rows, so its arrays hold O(max(_BATCH, n, edges of b))
    entries."""
    n = a.shape[0]
    cols_a, ptr_a, sig_a = _signatures(a)
    cols_b, ptr_b, sig_b = (cols_a, ptr_a, sig_a) if b is a else _signatures(b)
    order = np.argsort(-np.diff(ptr_a), kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    # earlier[pos]: the positions j < pos adjacent in ``a`` to order[pos]
    src = rank[np.repeat(np.arange(n), np.diff(ptr_a))]
    dst = rank[cols_a]
    back = dst < src
    src, dst = src[back], dst[back]
    bounds = np.cumsum(np.bincount(src, minlength=n))[:-1]
    earlier = np.split(dst[np.argsort(src, kind="stable")], bounds)
    # per signature of ``b``: its vertices ascending, and their neighbours
    # as one (degree, size) table, since the signature fixes the degree
    by_sig: dict[tuple, list[int]] = {}
    for w, sig in enumerate(sig_b):
        by_sig.setdefault(sig, []).append(w)
    classes = {}
    for sig, ws in by_sig.items():
        cand = np.array(ws, dtype=np.int32)
        classes[sig] = (cand, cols_b[ptr_b[cand] + np.arange(sig[0])[:, None]])
    if any(sig not in classes for sig in sig_a):
        return []  # a vertex with no candidate image
    # per position: candidates, their neighbours, e = earlier[pos], how many
    # maps one step expands, and how many children it keeps
    steps = []
    for pos, v in enumerate(order.tolist()):
        cand, nbrs = classes[sig_a[v]]
        keep = max(1, _HOLD // (n * (pos + 1)))
        width = min(keep, max(1, _BATCH // max(n, nbrs.size)))
        steps.append((cand, nbrs, earlier[pos], width, keep))

    results: list[tuple[int, ...]] = []
    vertices = list(range(n))
    rows = np.arange(max((step[3] for step in steps), default=1))[:, None]
    levels = [[np.zeros((1, 0), dtype=np.int32), 0]]  # [maps, next (map, candidate) pair]
    while levels:
        level = levels[-1]
        maps, start = level
        pos = maps.shape[1]
        if pos == n:
            levels.pop()
            leaves = maps[:1] if first_only else maps
            # row entries are images by position; vertex v sits at rank[v].
            # All maps share one int object per vertex: a large group's
            # maps would otherwise hold one per entry
            results += (tuple(map(vertices.__getitem__, m)) for m in leaves[:, rank].tolist())
            if limit is not None and len(results) > limit:
                raise LimitExceededError(
                    f"more than {limit} automorphisms found; raise the limit"
                )
            if first_only:
                return results
            continue
        cand, nbrs, e, width, keep = steps[pos]
        size = len(cand)
        first, skip = divmod(start, size)
        parents = maps[first : first + width]
        k = len(parents)
        # per parent and vertex of b: 1 for the image of a position in e, n
        # for any other placed image, 0 if unplaced; so the sum over the
        # neighbours of w is len(e) iff w is adjacent to every image of e
        # and to no other placed image
        weight = np.full(pos, n, dtype=np.int32)
        weight[e] = 1
        mark = np.zeros((k, n), dtype=np.int32)
        mark[rows[:k], parents] = weight
        ok = mark[:, nbrs].sum(axis=1) == len(e)
        ok &= mark[:, cand] == 0
        ok[0, :skip] = False  # tried by the previous step
        parent, w = np.nonzero(ok)
        if len(w) > keep:
            parent, w = parent[:keep], w[:keep]
            level[1] = (first + int(parent[-1])) * size + int(w[-1]) + 1
        else:
            level[1] = (first + k) * size
        if level[1] == len(maps) * size:
            levels.pop()
        if len(w):
            levels.append([np.concatenate((parents[parent], cand[w][:, None]), axis=1), 0])
    return results


def automorphisms(graph: Graph, limit: int = DEFAULT_AUT_LIMIT) -> list[Permutation]:
    """All permutations P with P A = A P, exactly, in ascending order.

    Degree-ordered backtracking with signature pruning, run a batch of
    partial maps per numpy step over the same search tree, in the same leaf
    order, as placing one image at a time (exact for any n, practical at
    desk scale).  It has no recursion limit, and its stack holds at most
    2^20 + n(n + 1)/2 int32 images.  Aborts with LimitExceededError
    if more than ``limit`` automorphisms exist.
    """
    maps = _search_maps(graph.adjacency, graph.adjacency, limit, first_only=False)
    return [Permutation(m) for m in sorted(maps)]


def find_isomorphism(ga: Graph, gb: Graph) -> Optional[Permutation]:
    """A vertex bijection carrying the first graph onto the second, or None.

    Isospectrality is checked first (necessary for isomorphism), within
    1e-8 * max(1, ||A||_F); the exact backtracking search runs only when the
    spectra agree.  The map returned is the first leaf of the search tree in
    depth-first order; the search expands a batch of partial maps per numpy
    step, with the tree, the leaf order and the memory bound of
    ``automorphisms``.  Capped at n <= 12.
    """
    if ga.n != gb.n:
        return None
    if ga.n > EXACT_SEARCH_MAX_N:
        raise SizeCapError(f"exact isomorphism search capped at n <= {EXACT_SEARCH_MAX_N}")
    if ga.n == 0:
        return Permutation(())
    a = ga.adjacency.astype(float)
    tol = 1e-8 * max(1.0, float(np.linalg.norm(a)))
    if not isospectral(a, gb.adjacency.astype(float), tol):
        return None
    maps = _search_maps(ga.adjacency, gb.adjacency, limit=None, first_only=True)
    if not maps:
        return None
    perm = Permutation(maps[0])
    p = perm.to_matrix()
    if not np.array_equal(p @ ga.adjacency @ p.T, gb.adjacency):
        raise StructureError(f"search returned a map that is not an isomorphism: {perm.mapping}")
    return perm


def is_permutation(p, tol: float = PERMUTATION_TOL) -> Optional[Permutation]:
    """Recover a permutation from a numeric matrix, or None.

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
    return Permutation(tuple(int(np.argmax(ones[:, i])) for i in range(m.shape[0])))


def adjacency_decomposition(graph: Graph, cluster_tol: float | None = None) -> SpectralDecomposition:
    """Eigendecomposition of the adjacency matrix."""
    return eig_sym(graph.adjacency.astype(float), cluster_tol=cluster_tol)


def hidden_symmetry_sample(graph: Graph, seed: int) -> np.ndarray:
    """A Haar-sampled orthogonal symmetry of the adjacency matrix, read-only.

    The sample commutes with the adjacency matrix but is generically not a
    permutation: these are symmetries of the graph spectrum that the vertex
    relabelings cannot see.
    """
    return sample_gamma(adjacency_decomposition(graph), seed)
