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
from .isotropy import IsotropyElement, sample_gamma
from .spectral import SpectralDecomposition, as_matrix, eig_sym, isospectral

EXACT_SEARCH_MAX_N = 12
PERMUTATION_TOL = 1e-6
DEFAULT_AUT_LIMIT = 10000


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph stored as a 0/1 adjacency matrix with zero
    diagonal."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.array(self.adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"adjacency must be square, got shape {a.shape}")
        if not np.isin(a, (0, 1)).all():
            raise StructureError("adjacency entries must be 0 or 1")
        a = a.astype(np.int64)
        if np.any(np.diag(a) != 0):
            raise StructureError("self-loops are not allowed (nonzero diagonal)")
        if not np.array_equal(a, a.T):
            raise StructureError("adjacency must be symmetric")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @classmethod
    def from_edges(cls, edges, n: int | None = None) -> Graph:
        edges = [(int(u), int(v)) for u, v in edges]
        if any(u < 0 or v < 0 for u, v in edges):
            raise StructureError("vertex indices must be nonnegative")
        size = max((max(u, v) for u, v in edges), default=-1) + 1
        if n is not None:
            if n < size:
                raise StructureError(f"n={n} too small for edge indices up to {size - 1}")
            size = n
        a = np.zeros((size, size), dtype=np.int64)
        for u, v in edges:
            if u == v:
                raise StructureError(f"self-loop {u}-{v} is not allowed")
            a[u, v] = 1
            a[v, u] = 1
        return cls(a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def edges(self) -> list[tuple[int, int]]:
        iu, ju = np.nonzero(np.triu(self.adjacency))
        return [(int(u), int(v)) for u, v in zip(iu, ju)]

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., n-1}; ``mapping[i]`` is the image of i."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        m = tuple(int(i) for i in self.mapping)
        if sorted(m) != list(range(len(m))):
            raise StructureError(f"not a bijection on 0..{len(m) - 1}: {m}")
        object.__setattr__(self, "mapping", m)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(n)))

    def __len__(self) -> int:
        return len(self.mapping)

    def compose(self, other: Permutation) -> Permutation:
        """self after other: (self * other)(i) = self(other(i))."""
        if len(self) != len(other):
            raise DimensionError("permutation sizes differ")
        return Permutation(tuple(self.mapping[j] for j in other.mapping))

    def inverse(self) -> Permutation:
        inv = [0] * len(self)
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Permutation(tuple(inv))

    def to_matrix(self) -> np.ndarray:
        """Matrix P with P e_i = e_{mapping[i]}; P A = A P iff self is an
        automorphism of the graph with adjacency A."""
        n = len(self)
        p = np.zeros((n, n), dtype=np.int64)
        for i, j in enumerate(self.mapping):
            p[j, i] = 1
        return p


def _vertex_signatures(a: np.ndarray) -> list[tuple]:
    # degree plus sorted neighbor degrees; an exact invariant used only to
    # prune candidate images, never to accept one
    deg = a.sum(axis=1)
    return [
        (int(deg[v]), tuple(sorted(int(deg[u]) for u in np.nonzero(a[v])[0])))
        for v in range(a.shape[0])
    ]


def _search_maps(a: np.ndarray, b: np.ndarray, limit: int | None, first_only: bool):
    """Backtracking search for vertex maps with b[m(u), m(v)] == a[u, v].
    Exact integer arithmetic throughout."""
    n = a.shape[0]
    sig_a = _vertex_signatures(a)
    sig_b = _vertex_signatures(b)
    order = sorted(range(n), key=lambda v: (-int(a[v].sum()), v))
    mapping = [-1] * n
    used = [False] * n
    results: list[tuple[int, ...]] = []

    def extend(pos: int) -> bool:
        if pos == n:
            results.append(tuple(mapping))
            if limit is not None and len(results) > limit:
                raise LimitExceededError(
                    f"more than {limit} automorphisms found; raise the limit"
                )
            return first_only
        v = order[pos]
        for w in range(n):
            if used[w] or sig_a[v] != sig_b[w]:
                continue
            if any(a[v, order[j]] != b[w, mapping[order[j]]] for j in range(pos)):
                continue
            mapping[v] = w
            used[w] = True
            if extend(pos + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    extend(0)
    return results


def automorphisms(graph: Graph, limit: int = DEFAULT_AUT_LIMIT) -> list[Permutation]:
    """All permutations P with P A = A P, exactly.

    Backtracking with degree pruning (exact for any n, practical at desk
    scale).  Aborts with LimitExceededError if more than ``limit``
    automorphisms exist.
    """
    maps = _search_maps(graph.adjacency, graph.adjacency, limit, first_only=False)
    return [Permutation(m) for m in sorted(maps)]


def find_isomorphism(ga: Graph, gb: Graph) -> Optional[Permutation]:
    """A vertex bijection carrying the first graph onto the second, or None.

    Isospectrality is checked first (necessary for isomorphism), within
    1e-8 * max(1, ||A||_F); the exact backtracking search runs only when the
    spectra agree.  Capped at n <= 12.
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
    m = as_matrix(p)
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


def hidden_symmetry_sample(graph: Graph, seed: int) -> IsotropyElement:
    """A Haar-sampled orthogonal symmetry of the adjacency matrix.

    The sample commutes with the adjacency matrix but is generically not a
    permutation: these are symmetries of the graph spectrum that the vertex
    relabelings cannot see.
    """
    return sample_gamma(adjacency_decomposition(graph), seed)
