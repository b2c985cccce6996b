"""Orthogonal symmetries of a symmetric matrix.

Every orthogonal G with GA = AG arises as V^T sigma V where sigma is
block-diagonal orthogonal with block sizes given by the eigenvalue
multiplicities of A.  This module enumerates the finite sign subgroup
(2^n diagonal-sign elements), Haar-samples the continuous block group,
and tests membership directly through the commutation characterization.
A block element sigma is a plain read-only (n, n) float64 array, zero off
its diagonal blocks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, SizeCapError, StructureError
from .spectral import SpectralDecomposition, _scaled, _unscaled, as_sym

# the elements alone take 2^n * n^2 * 8 bytes, 25.7 MB at n = 14 and 3.4 GB
# at n = 20, and their JSON takes about 2.7 times as much (69,138,003 bytes
# for a random 14 x 14 matrix); the CLI's JSON holds at most the first half
# of them at once, 12.8 MB at n = 14, and the magnitudes of that half's
# upper triangles and of their mirror images, 6.9 MB each
GAMMA2_MAX_N = 14
MEMBER_TOL = 1e-8
_BLOCK_ORTH_TOL = 1e-10
# entries of one (k, n, n) stack of sampled symmetries (2 MiB): 64 samples
# at n = 64, and a request for more draws them a chunk at a time
_STACK_VALUES = 1 << 18


def conjugate(dec: SpectralDecomposition, sigma) -> np.ndarray:
    """gamma = V^T sigma V, read-only, for a block element sigma of the
    decomposition: an (n, n) array that is zero off the diagonal blocks
    ``dec.cluster_slices()`` gives.  For a (k, n, n) stack of block
    elements, the (k, n, n) stack of their conjugates, element i bit for bit
    ``conjugate(dec, sigma[i])``.

    Raises StructureError if sigma has another shape or an element has a
    nonzero entry off those blocks, is not orthogonal once conjugated
    (sigma or V is not) or does not commute with the matrix (sigma does not
    respect its eigenspaces).  A NaN residual fails either check.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = dec.n
    if sigma.ndim not in (2, 3) or sigma.shape[-2:] != (n, n):
        raise StructureError(
            f"block element of shape {sigma.shape} does not match a {n} x {n} decomposition"
        )
    stack = sigma if sigma.ndim == 3 else sigma[None]
    m = dec.multiplicities
    block = np.repeat(np.arange(len(m)), m)
    if np.any(stack[:, block[:, None] != block]):
        raise StructureError(
            f"block element is nonzero off the blocks of multiplicities {m}",
            details={"dec_m": m},
        )
    a = dec.reconstruct()
    # a sigma far from orthogonal may overflow gamma or its residual, and an
    # infinite or NaN entry gives a NaN residual: both fail the check.  The
    # elements are checked in order, each as it would be alone
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = dec.v.T @ stack @ dec.v
        residual = _residual_with(a, a, 1e-8)
        for g in gamma:
            orth = orthogonality_residual(g)
            if not (orth <= 1e-9 * n):
                raise StructureError(f"conjugated element lost orthogonality ({orth:.2e})")
            comm, bound, shift = residual(g)
            if not (comm <= bound):
                raise StructureError(
                    f"conjugated element fails to commute ({_unscaled(comm, shift):.2e})"
                )
    gamma = gamma.reshape(sigma.shape)
    gamma.setflags(write=False)
    return gamma


def gamma2_order(n: int) -> int:
    """The number 2^n of sign-group elements of an n x n matrix.  Raises
    SizeCapError where ``gamma2_elements`` would refuse to list them."""
    if n > GAMMA2_MAX_N:
        raise SizeCapError(
            f"2^{n} sign elements exceed the enumeration cap (n <= "
            f"{GAMMA2_MAX_N}); use sample_gamma instead"
        )
    return 2**n


def gamma2_elements(dec: SpectralDecomposition, indices=None) -> np.ndarray:
    """All 2^n diagonal-sign symmetries V^T diag(s) V as one read-only
    (2^n, n, n) array.  Element k has s_i = -1 exactly where bit n-1-i of k
    is set, so element 0 is the identity and element 2^n - 1 is -identity.

    With ``indices``, a sequence of element numbers in [0, 2^n), only those
    elements, in that order, as one (len(indices), n, n) array; each is bit
    for bit the same row of the full array.

    Unlike ``conjugate`` this does not check the elements: a sign pattern
    keeps every eigenvector, so each element is orthogonal and commutes
    with the matrix as far as V is orthogonal."""
    n = dec.n
    count = gamma2_order(n)
    if indices is None:
        k = np.arange(count)
    else:
        k = np.asarray(indices).astype(np.int64, casting="safe", copy=False)
        # k >> n is 0 exactly for k in [0, 2^n); it is -1 for a negative k
        if k.ndim != 1 or np.count_nonzero(k >> n):
            raise ValueError(f"indices must be a flat sequence of integers in [0, {count})")
    bits = (k[:, None] >> np.arange(n - 1, -1, -1)) & 1
    signs = 1.0 - 2.0 * bits
    gammas = (dec.v.T[None] * signs[:, None, :]) @ dec.v
    gammas.setflags(write=False)
    return gammas


def sample_block_stack(m: tuple[int, ...], rngs) -> np.ndarray:
    """One Haar sample sigma per generator of the sequence ``rngs``, from
    the block-orthogonal group with block sizes ``m``, as one read-only
    (k, n, n) stack that is zero off the diagonal blocks.

    Per block: Gaussian draw, QR factorization, column signs fixed so the
    triangular factor has a positive diagonal, then the first column is
    negated with probability 1/2 to cover both components of the block's
    orthogonal group (Mezzadri 2007).

    Sample i draws from ``rngs[i]``, after sample i - 1 has drawn: per
    block and in ``m`` order, one (s, s) standard normal array and then one
    uniform.  A generator may appear more than once, and sample i is then
    bit for bit ``sample_block_stack(m, [rng])[0]`` drawn right after
    sample i - 1.
    The output of ``isotropy sample``, ``procrustes family`` and ``graph
    hidden`` stays byte-stable only as long as that order holds.  The
    factorizations then run as one stacked QR per block size of 2 or more,
    for all samples at once.
    """
    m = tuple(m)
    normals = {s: [] for s in m}
    uniforms = {s: [] for s in m}
    # a 1 x 1 block's normal is drawn as a float: the same draw, without
    # making an array
    plan = [(None if s == 1 else (s, s), normals[s].append, uniforms[s].append) for s in m]
    for rng in rngs:
        normal, uniform = rng.standard_normal, rng.random
        for shape, add_normal, add_uniform in plan:
            add_normal(normal(shape))
            add_uniform(uniform())
    k, n = len(rngs), sum(m)
    sigma = np.zeros((k, n, n))
    # the flat index of each block's first entry in sigma: q holds sample
    # 0's blocks of size s in m order, then sample 1's, ...
    corner = np.cumsum((0, *m[:-1])) * (n + 1)
    sizes = np.array(m)
    for s in normals:
        q = _haar_blocks(np.array(normals[s]).reshape(-1, s, s), np.array(uniforms[s]))
        first = (np.arange(0, k * n * n, n * n)[:, None] + corner[sizes == s]).ravel()
        entry = np.arange(0, s * n, n)[:, None] + np.arange(s)
        sigma.flat[first[:, None, None] + entry] = q
    sigma.setflags(write=False)
    return sigma


def _haar_blocks(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The Haar factors of the (K, s, s) standard normal draws ``z`` and
    the K uniforms ``u``: Q of z = QR with each column's sign set so that R
    has a positive diagonal, then the first column negated where u < 0.5.

    A 1 x 1 block takes no QR: LAPACK's reflector of a single entry x is
    the identity (dlarfg sets tau = 0), so Q = 1.0 and R = x exactly, and
    the sign-fixed Q is -1.0 where x < 0 and 1.0 elsewhere, -0.0 included.
    """
    s = z.shape[1]
    if s == 1:
        q = np.where(z < 0.0, -1.0, 1.0)
    else:
        q, r = np.linalg.qr(z)
        q = q * np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]
    flip = u < 0.5
    q[flip, :, 0] = -q[flip, :, 0]
    # a post-condition of QR, checked for the whole stack at once
    err = np.linalg.norm(q @ q.transpose(0, 2, 1) - np.eye(s), axis=(1, 2))
    if not np.all(err <= _BLOCK_ORTH_TOL * s):
        raise StructureError(f"block of size {s} is not orthogonal")
    return q


def _chunk(n: int) -> int:
    """Samples per stacked draw at size n: as many as fit in
    ``_STACK_VALUES`` entries, and at least one."""
    return max(1, _STACK_VALUES // max(1, n * n))


def sample_gammas(dec: SpectralDecomposition, seeds) -> np.ndarray:
    """``sample_gamma(dec, seed)`` for each of the seeds, bit for bit, as
    one read-only (k, n, n) stack.  The samples are drawn, factored and
    conjugated ``_chunk(n)`` at a time, so that no temporary grows with k."""
    seeds = list(seeds)
    n = dec.n
    out = np.empty((len(seeds), n, n))
    step = _chunk(n)
    for lo in range(0, len(seeds), step):
        rngs = [np.random.default_rng(seed) for seed in seeds[lo : lo + step]]
        out[lo : lo + step] = conjugate(dec, sample_block_stack(dec.multiplicities, rngs))
    out.setflags(write=False)
    return out


def sample_gamma(dec: SpectralDecomposition, seed: int) -> np.ndarray:
    """Haar-distributed symmetry of the decomposed matrix, read-only;
    deterministic for a fixed seed: ``sample_gammas(dec, [seed])[0]``."""
    return sample_gammas(dec, [seed])[0]


def _residual_with(a, b, tol: float = 0.0):
    """The function P -> ``_residual(a, b, p, tol)``, bit for bit: A, B and
    tol are scaled once, and each P on its own, so that many P cost one
    scaling of A and B."""
    same = b is a
    a, b = (np.asarray(x, dtype=float) for x in (a, b))
    if same:
        s, a, c = _scaled(a, tol)
        b = a
    else:
        s, a, b, c = _scaled(a, b, tol)
    # the bound over 2^s, before P's own scale
    floor = max(c, tol * float(np.linalg.norm(a))) if tol else 0.0

    def residual(p):
        p = np.asarray(p, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.shape == b.shape == p.shape:
            raise DimensionError(f"operand shapes disagree: {a.shape}, {b.shape}, {p.shape}")
        t, p = _scaled(p)
        bound = _unscaled(floor, -t) if tol else 0.0
        return float(np.linalg.norm(p @ a - b @ p)), bound, s + t

    return residual


def _residual(a, b, p, tol: float = 0.0) -> tuple[float, float, int]:
    """||PA - BP||_F / 2^k, tol * max(1, ||A||_F) / 2^k and k = s + t.

    ``spectral._scaled`` divides A, B and tol, the constant term of the
    bound, by one power of two 2^s and P by its own 2^t, so nothing
    overflows where the values do not, nor underflows for a tiny A."""
    return _residual_with(a, b, tol)(p)


def orthogonality_residual(g) -> float:
    """||G G^T - I||_F, infinite only where it is past the float range: taken
    as 4^t ||G' G'^T - I / 4^t||_F for G' = G / 2^t, with the I scaled as
    one more operand of G."""
    t, gs, c = _scaled(np.asarray(g, dtype=float), 1.0)
    r = gs @ gs.T
    r[np.diag_indices(len(r))] -= c * c
    return _unscaled(float(np.linalg.norm(r)), 2 * t)


def commutator_residual(a, g) -> float:
    """||GA - AG||_F, infinite only where it is past the float range,
    whatever the scales of A and G: ``procrustes.cost(a, a, g)``."""
    comm, _, shift = _residual(a, a, g)
    return _unscaled(comm, shift)


def _commutator_residuals(a, gs) -> list[float]:
    """``commutator_residual(a, g)`` for each G of ``gs``, bit for bit, with
    A scaled once."""
    residual = _residual_with(a, a)
    return [_unscaled(comm, shift) for comm, _, shift in map(residual, gs)]


def is_member(dec, g, tol: float = MEMBER_TOL) -> bool:
    """Membership test via the commutation characterization: G belongs to the
    symmetry group iff it is orthogonal and commutes with the matrix A,
    ||GA - AG||_F <= tol * max(1, ||A||_F).  Checked directly (no recovery
    of the block factor), which is immune to basis choices inside
    degenerate eigenspaces, and at every scale of A: the verdict for 2^k A
    is that for A whenever ||A||_F >= 1.

    ``dec`` is a decomposition, whose matrix is rebuilt, or the symmetric
    matrix itself, which needs no decomposition at all and is validated by
    ``as_sym``."""
    # an infinite tol accepts anything and a NaN one rejects everything
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol:g}")
    gm = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(gm)):
        raise ValueError("candidate entries must be finite")
    a = dec.reconstruct() if isinstance(dec, SpectralDecomposition) else as_sym(dec)
    if gm.shape != a.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {gm.shape}")
    if orthogonality_residual(gm) > tol * len(a):
        return False
    comm, bound, _ = _residual(a, a, gm, tol)
    return comm <= bound
