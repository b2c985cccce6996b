"""Orthogonal symmetries of a symmetric matrix.

Every orthogonal G with GA = AG arises as V^T sigma V where sigma is
block-diagonal orthogonal with block sizes given by the eigenvalue
multiplicities of A.  This module enumerates the finite sign subgroup
(2^n diagonal-sign elements), Haar-samples the continuous block group,
and tests membership directly through the commutation characterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, SizeCapError, StructureError
from .spectral import SpectralDecomposition, _scaled, _unscaled, as_sym

# the elements alone take 2^n * n^2 * 8 bytes, 25.7 MB at n = 14 and 3.4 GB
# at n = 20, and their JSON takes about 2.7 times as much (69,138,003 bytes
# for a random 14 x 14 matrix); the CLI's JSON holds at most the first half
# of them at once, 12.8 MB at n = 14, and 4-byte codes for that half
GAMMA2_MAX_N = 14
MEMBER_TOL = 1e-8
_BLOCK_ORTH_TOL = 1e-10


@dataclass(frozen=True)
class BlockOrthogonal:
    """A block-diagonal orthogonal matrix stored blockwise.

    Block i is an orthogonal m_i x m_i matrix; the implied full matrix is
    zero off the diagonal blocks by construction.  The blocks of one size
    are held as one read-only (k, s, s) stack, in ``m`` order, and
    ``blocks`` are views into those stacks, so each size is checked,
    multiplied and transposed in one call.
    """

    m: tuple[int, ...]
    blocks: tuple[np.ndarray, ...]
    _stacks: dict[int, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.m) != len(self.blocks):
            raise StructureError("one block per multiplicity entry required")
        m = tuple(int(s) for s in self.m)
        blocks = [np.asarray(b, dtype=float) for b in self.blocks]
        # a stack holds only well-shaped blocks, so those before the first
        # misshapen one are checked first: the error names the first
        # failing block in m order
        cut = next(
            (i for i, (s, b) in enumerate(zip(m, blocks)) if b.shape != (s, s)), len(m)
        )
        stacks = {s: np.array(bs) for s, bs in _by_size(m[:cut], blocks[:cut]).items()}
        _check_orthogonal(m[:cut], stacks)
        if cut < len(m):
            raise StructureError(
                f"block of shape {blocks[cut].shape} does not match multiplicity {m[cut]}"
            )
        self._freeze(m, stacks)

    @classmethod
    def _from_stacks(cls, m: tuple[int, ...], stacks: dict[int, np.ndarray]) -> BlockOrthogonal:
        """The element whose blocks of size s are the new arrays stacks[s],
        in m order; checked as the constructor checks its blocks."""
        m = tuple(int(s) for s in m)
        _check_orthogonal(m, stacks)
        out = object.__new__(cls)
        out._freeze(m, stacks)
        return out

    def _freeze(self, m: tuple[int, ...], stacks: dict[int, np.ndarray]) -> None:
        for stack in stacks.values():
            stack.setflags(write=False)
        rows = {s: iter(stack) for s, stack in stacks.items()}
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "blocks", tuple(next(rows[s]) for s in m))
        object.__setattr__(self, "_stacks", stacks)

    @property
    def n(self) -> int:
        return sum(self.m)

    def full(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        start = 0
        for size, b in zip(self.m, self.blocks):
            out[start : start + size, start : start + size] = b
            start += size
        return out

    def transposed(self) -> BlockOrthogonal:
        return BlockOrthogonal._from_stacks(
            self.m, {s: b.transpose(0, 2, 1).copy() for s, b in self._stacks.items()}
        )

    def compose(self, other: BlockOrthogonal) -> BlockOrthogonal:
        """Blockwise product self @ other; block structures must agree."""
        if self.m != other.m:
            raise StructureError(
                f"block structures differ: {self.m} vs {other.m}",
                details={"m_left": self.m, "m_right": other.m},
            )
        return BlockOrthogonal._from_stacks(
            self.m, {s: a @ other._stacks[s] for s, a in self._stacks.items()}
        )


def _by_size(m: tuple[int, ...], items) -> dict[int, list]:
    """items[i] grouped under m[i], in m order within each group."""
    groups: dict[int, list] = {}
    for size, item in zip(m, items):
        groups.setdefault(size, []).append(item)
    return groups


def _check_orthogonal(m: tuple[int, ...], stacks: dict[int, np.ndarray]) -> None:
    """Raise for the first block in m order, of the blocks stacked by size,
    that is not orthogonal.  A block far from orthogonal may overflow the
    residual; an infinite or NaN residual counts as not orthogonal."""
    failed = {}
    for size, stack in stacks.items():
        with np.errstate(over="ignore", invalid="ignore"):
            err = np.linalg.norm(stack @ stack.transpose(0, 2, 1) - np.eye(size), axis=(1, 2))
        failed[size] = ~(err <= _BLOCK_ORTH_TOL * size)
    if any(f.any() for f in failed.values()):
        rows = {s: iter(f) for s, f in failed.items()}
        size = next(s for s in m if next(rows[s]))
        raise StructureError(f"block of size {size} is not orthogonal")


def conjugate(dec: SpectralDecomposition, sigma: BlockOrthogonal) -> np.ndarray:
    """gamma = V^T sigma V, read-only, for a block element sigma of the
    decomposition.

    The structure of ``sigma`` must equal the decomposition's multiplicity
    vector.  Raises StructureError if gamma is not orthogonal (V is not) or
    does not commute with the matrix (sigma does not respect its
    eigenspaces).
    """
    if sigma.m != dec.multiplicities:
        raise StructureError(
            f"block structure {sigma.m} does not match decomposition "
            f"multiplicities {dec.multiplicities}",
            details={"sigma_m": sigma.m, "dec_m": dec.multiplicities},
        )
    gamma = dec.v.T @ sigma.full() @ dec.v
    orth = orthogonality_residual(gamma)
    if orth > 1e-9 * dec.n:
        raise StructureError(f"conjugated element lost orthogonality ({orth:.2e})")
    a = dec.reconstruct()
    comm, bound, shift = _residual(a, a, gamma, 1e-8)
    if comm > bound:
        raise StructureError(
            f"conjugated element fails to commute ({_unscaled(comm, shift):.2e})"
        )
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


def sample_block_orthogonal(
    m: tuple[int, ...], rng: np.random.Generator
) -> BlockOrthogonal:
    """Haar sample from the block-orthogonal group with block sizes ``m``.

    Per block: Gaussian draw, QR factorization, column signs fixed so the
    triangular factor has a positive diagonal, then the first column is
    negated with probability 1/2 to cover both components of the block's
    orthogonal group (Mezzadri 2007).

    The draws from ``rng`` are, per block and in ``m`` order, one (s, s)
    standard normal array and then one uniform; the output of ``isotropy
    sample``, ``procrustes family`` and ``graph hidden`` stays byte-stable
    only as long as that order holds.  The factorizations then run as one
    stacked QR per block size.
    """
    draws = [(rng.standard_normal((size, size)), rng.random()) for size in m]
    stacks = {}
    for size, group in _by_size(m, draws).items():
        normals, uniforms = zip(*group)
        q, r = np.linalg.qr(np.array(normals))
        q = q * np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]
        flip = np.array(uniforms) < 0.5
        q[flip, :, 0] = -q[flip, :, 0]
        stacks[size] = q
    return BlockOrthogonal._from_stacks(m, stacks)


def sample_gamma(dec: SpectralDecomposition, seed: int) -> np.ndarray:
    """Haar-distributed symmetry of the decomposed matrix, read-only;
    deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    sigma = sample_block_orthogonal(dec.multiplicities, rng)
    return conjugate(dec, sigma)


def rotate_basis(
    dec: SpectralDecomposition, sigma: BlockOrthogonal
) -> SpectralDecomposition:
    """An equally valid decomposition of the same matrix with the eigenbasis
    mixed inside each cluster by ``sigma``.  Exercises the fact that the
    symmetry group does not depend on which diagonalizing basis is used."""
    if sigma.m != dec.multiplicities:
        raise StructureError(
            f"block structure {sigma.m} does not match decomposition "
            f"multiplicities {dec.multiplicities}"
        )
    return replace(dec, v=sigma.full() @ dec.v)


def _residual(a, b, p, tol: float = 0.0) -> tuple[float, float, int]:
    """||PA - BP||_F / 2^k, tol * max(1, ||A||_F) / 2^k and k = s + t.

    ``spectral._scaled`` divides A, B and tol, the constant term of the
    bound, by one power of two 2^s and P by its own 2^t, so nothing
    overflows where the values do not, nor underflows for a tiny A."""
    same = b is a
    a, b, p = (np.asarray(x, dtype=float) for x in (a, b, p))
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.shape == b.shape == p.shape:
        raise DimensionError(f"operand shapes disagree: {a.shape}, {b.shape}, {p.shape}")
    t, p = _scaled(p)
    if same:
        s, a, c = _scaled(a, tol)
        b = a
    else:
        s, a, b, c = _scaled(a, b, tol)
    bound = _unscaled(max(c, tol * float(np.linalg.norm(a))), -t) if tol else 0.0
    return float(np.linalg.norm(p @ a - b @ p)), bound, s + t


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
