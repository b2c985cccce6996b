"""Shared test utilities: seeded generators and independent oracles.

The oracles here (brute-force isomorphism enumeration, Newton refinement,
QR-based random orthogonal matrices) deliberately avoid the library code
paths they are used to check.
"""

import itertools

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

MASTER_SEED = 20260810


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
