"""Shared test utilities: seeded generators and independent oracles.

The oracles here (brute-force isomorphism enumeration, Newton refinement,
QR-based random orthogonal matrices, RK4 on numpy arrays) deliberately
avoid the library code paths they are used to check.
"""

import itertools
import os
from pathlib import Path

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import orthosym
from orthosym.dynsys import guiding_matrix
from orthosym.errors import DivergenceError, InputFormatError, LimitExceededError
from orthosym.graphsym import Graph
from orthosym.matio import _lines, _tokenize

MASTER_SEED = 20260810


def subprocess_env(**overrides):
    """The environment for a fresh interpreter that imports this checkout's
    ``orthosym``: its source directory first on PYTHONPATH, then the caller's
    PYTHONPATH, plus ``overrides``."""
    src = str(Path(orthosym.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **overrides)


def format_matrix(a) -> str:
    """A matrix file: one row per line, each value with full round-trip
    precision."""
    m = np.asarray(a, dtype=float)
    return "\n".join(" ".join(repr(float(x)) for x in row) for row in m) + "\n"


def random_symmetric(rng, n):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


@st.composite
def symmetric_matrices(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    elements = st.floats(-10.0, 10.0, allow_subnormal=False)
    m = draw(hnp.arrays(np.float64, (n, n), elements=elements))
    return (m + m.T) / 2.0


@st.composite
def block_sizes(draw, max_n=70):
    """A multiplicity vector of blocks of size 1-4, sizes mixed in any
    order, summing to at most max_n."""
    left = draw(st.integers(0, max_n))
    out = []
    while left:
        out.append(draw(st.integers(1, min(4, left))))
        left -= out[-1]
    return tuple(out)


def haar_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def planted_matrix(rng, reps):
    """Symmetric matrix with prescribed eigenvalues (repeats allowed),
    conjugated by a random orthogonal basis.  Returns (matrix, sorted reps)."""
    lam = np.sort(np.asarray(reps, dtype=float))
    q = haar_orthogonal(rng, lam.size)
    return q @ np.diag(lam) @ q.T, lam


def set_distance(target, elements):
    """Distance from ``target`` to the nearest element (max-abs metric)."""
    return min(float(np.max(np.abs(np.asarray(e) - target))) for e in elements)


def random_cubic(rng, n):
    """Adjacency of a uniform 3-regular simple graph on n vertices (n even):
    the configuration model, drawn again until no loop or double edge."""
    while True:
        points = rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2)
        u, v = points.min(axis=1), points.max(axis=1)
        if np.all(u != v) and len(set(zip(u.tolist(), v.tolist()))) == len(u):
            a = np.zeros((n, n), dtype=np.int64)
            a[u, v] = a[v, u] = 1
            return a


def brute_force_isomorphisms(a, b):
    """Every permutation p with a[p][:, p] == b, found by checking all n!
    of them; ``brute_force_isomorphisms(a, a)`` lists the automorphisms."""
    a, b = np.asarray(a), np.asarray(b)
    n = a.shape[0]
    # every permutation at once, in lexicographic order (8! x 8 x 8 entries
    # at n = 8)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
    match = (a[perms[:, :, None], perms[:, None, :]] == b).all(axis=(1, 2))
    return [tuple(map(int, p)) for p in perms[match]]


def neighbours_and_signatures(m):
    """Per vertex its ascending neighbours and its degree signature (degree
    plus sorted neighbour degrees), as lists."""
    rows, cols = np.nonzero(m)
    deg = np.bincount(rows, minlength=m.shape[0])
    bounds = np.concatenate(([0], np.cumsum(deg))).tolist()
    cols_l = cols.tolist()
    nbr_deg = deg[cols][np.lexsort((deg[cols], rows))].tolist()
    neighbours = [cols_l[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    signatures = [(hi - lo, tuple(nbr_deg[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    return neighbours, signatures


def forced_vertices(a, b):
    """The vertices of ``a`` whose signature class in ``b`` has exactly one
    vertex, ascending: each has one possible image."""
    _, sig_a = neighbours_and_signatures(np.asarray(a))
    _, sig_b = neighbours_and_signatures(np.asarray(b))
    return [v for v, sig in enumerate(sig_a) if sig_b.count(sig) == 1]


def scalar_search_maps(a, b, limit, first_only, placed=None, forced_first=False):
    """Test-only copy of the one-map-at-a-time backtracking search that
    ``graphsym._search_maps`` replaced: the reference for its results,
    their order, and where it raises LimitExceededError.  Each image placed,
    one per node of the search tree below the root, appends its position to
    the list ``placed`` if one is given.

    Vertices of ``a`` are placed in order of descending degree (ties by
    index), each trying the images ``w`` of equal signature (degree plus
    sorted neighbour degrees) in ascending order.  With ``forced_first``,
    the ``forced_vertices`` come first, in that order among themselves, and
    then the others, in that order: the order of the batched search, whose
    tree below the forced prefix is this one's.  Position ``pos`` accepts
    ``w`` iff it is unused and its edges to the images of positions
    0..pos-1 equal the edges of ``order[pos]`` to those vertices, kept as
    one bitmask over positions per vertex of ``b``."""
    n = a.shape[0]
    nbrs_a, sig_a = neighbours_and_signatures(a)
    nbrs_b, sig_b = (nbrs_a, sig_a) if b is a else neighbours_and_signatures(b)
    order = sorted(range(n), key=lambda v: (-sig_a[v][0], v))
    if forced_first:
        forced = set(forced_vertices(a, b))
        order = [v for v in order if v in forced] + [v for v in order if v not in forced]
    rank = [0] * n
    for pos, v in enumerate(order):
        rank[v] = pos
    pattern = [
        sum(1 << rank[u] for u in nbrs_a[v] if rank[u] < pos) for pos, v in enumerate(order)
    ]
    by_sig = {}
    for w, sig in enumerate(sig_b):
        by_sig.setdefault(sig, []).append(w)
    candidates = [by_sig.get(sig_a[v], []) for v in order]

    seen = [0] * n
    used = [False] * n
    mapping = [-1] * n
    tried = [0] * n  # tried[pos]: how many of candidates[pos] were tried
    results = []
    pos = 0
    while True:
        if pos == n:
            results.append(tuple(mapping))
            if limit is not None and len(results) > limit:
                raise LimitExceededError(
                    f"more than {limit} automorphisms found; raise the limit"
                )
            if first_only:
                return results
        else:
            cands = candidates[pos]
            want = pattern[pos]
            start = tried[pos]
            tried[pos] = 0
            for i in range(start, len(cands)):
                w = cands[i]
                if seen[w] == want and not used[w]:
                    if placed is not None:
                        placed.append(pos)
                    tried[pos] = i + 1
                    mapping[order[pos]] = w
                    used[w] = True
                    bit = 1 << pos
                    for x in nbrs_b[w]:
                        seen[x] |= bit
                    break
            if tried[pos]:
                pos += 1
                continue
        # backtrack: take back the image placed at the previous position
        pos -= 1
        if pos < 0:
            return results
        w = mapping[order[pos]]
        used[w] = False
        bit = ~(1 << pos)
        for x in nbrs_b[w]:
            seen[x] &= bit


def newton_equilibrium(a, x0, max_iter=100, step_tol=1e-13):
    """Newton refinement for A x - ||x||^2 x = 0 from a given start.

    Uses minimum-norm (least-squares) steps so that neutral directions along
    equilibrium manifolds do not make the iteration wander.  Returns the
    final iterate, or None if it leaves the finite range.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    for _ in range(max_iter):
        f = a @ x - (x @ x) * x
        j = a - (2.0 * np.outer(x, x) + (x @ x) * np.eye(n))
        # machine-precision cutoff: a larger rcond truncates the weak
        # curvature directions at degenerate roots and stalls short of them
        dx = np.linalg.lstsq(j, f, rcond=None)[0]
        x = x - dx
        if not np.all(np.isfinite(x)):
            return None
        if np.linalg.norm(dx) < step_tol:
            return x
    return x


def rk4_on_arrays(x0, mu, dt, steps):
    """Test-only copy of the RK4 loop on numpy 3-vectors that
    ``dynsys.integrate`` replaced: the reference for its trajectory, bit for
    bit, and for the step and message of its DivergenceError."""
    a = guiding_matrix(mu)

    def f(x):
        return a @ x - (x @ x) * x

    traj = np.empty((steps + 1, 3))
    x = np.asarray(x0, dtype=float).copy()
    traj[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            k1 = f(x)
            k2 = f(x + 0.5 * dt * k1)
            k3 = f(x + 0.5 * dt * k2)
            k4 = f(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(x).all():
                raise DivergenceError(f"trajectory diverged at step {k + 1}", step=k + 1)
            traj[k + 1] = x
    return traj


def reference_parse_matrix(text):
    """Test-only copy of the per-token ``float()`` parser that
    ``matio._read_matrix`` replaced: the reference for its bits, and for
    the message and line of its InputFormatError."""
    lines = _lines(text)
    if not lines:
        raise InputFormatError("no matrix data found (file empty?)")
    n = len(lines)
    rows = []
    for row_index, (lineno, line) in enumerate(lines, start=1):
        tokens = _tokenize(line)
        if len(tokens) != n:
            raise InputFormatError(f"row {row_index} has {len(tokens)} values, expected {n}", line=lineno)
        try:
            rows.append([float(t) for t in tokens])
        except ValueError as exc:
            raise InputFormatError(f"non-numeric token: {exc}", line=lineno) from None
    return np.array(rows)


def reference_parse_graph(text):
    """Test-only copy of the block parser that ``matio.parse_graph``
    replaced: a square 0/1 symmetric zero-diagonal block of numbers is an
    adjacency matrix, converted a block of rows at a time; anything else is
    an edge list of "u v" lines."""
    lines = _lines(text)
    if not lines:
        raise InputFormatError("no graph data found (file empty?)")
    n = len(lines)
    step = max(1, 2**12 // n)
    blocks = []
    for lo in range(0, n, step):
        rows = [_tokenize(line) for _, line in lines[lo : lo + step]]
        if any(len(tokens) != n for tokens in rows):
            break
        try:
            block = np.array([[float(t) for t in tokens] for tokens in rows])
        except ValueError:
            break
        if not ((block == 0) | (block == 1)).all():
            break
        blocks.append(block.astype(np.int8))
    else:
        a = np.concatenate(blocks)
        if not a.diagonal().any() and np.array_equal(a, a.T):
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
