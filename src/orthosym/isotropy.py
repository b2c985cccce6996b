"""Orthogonal symmetries of a symmetric matrix.

Every orthogonal G with GA = AG arises as V^T sigma V where sigma is
block-diagonal orthogonal with block sizes given by the eigenvalue
multiplicities of A.  This module enumerates the finite sign subgroup
(2^n diagonal-sign elements), Haar-samples the continuous block group,
and tests membership directly through the commutation characterization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .errors import DimensionError, SizeCapError, StructureError
from .spectral import SpectralDecomposition, SymMatrix, as_matrix

GAMMA2_MAX_N = 20
MEMBER_TOL = 1e-8
_BLOCK_ORTH_TOL = 1e-10


@dataclass(frozen=True)
class SignPattern:
    """A vector of +/-1 signs; the diagonal elements of the finite sign group."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if not all(s in (1, -1) for s in self.signs):
            raise ValueError("sign entries must be exactly +1 or -1")
        object.__setattr__(self, "signs", tuple(int(s) for s in self.signs))

    @classmethod
    def from_index(cls, index: int, n: int) -> SignPattern:
        """Decode ``index`` in [0, 2^n): bit (n-1-i) set means sign i is -1,
        so index 0 is the identity pattern and 2^n - 1 is all minus."""
        if not 0 <= index < 2**n:
            raise ValueError(f"index {index} out of range for n={n}")
        return cls(tuple(-1 if (index >> (n - 1 - i)) & 1 else 1 for i in range(n)))

    @property
    def index(self) -> int:
        n = len(self.signs)
        return sum(1 << (n - 1 - i) for i, s in enumerate(self.signs) if s == -1)

    def to_diagonal(self) -> np.ndarray:
        return np.array(self.signs, dtype=float)


@dataclass(frozen=True)
class BlockOrthogonal:
    """A block-diagonal orthogonal matrix stored blockwise.

    Block i is an orthogonal m_i x m_i matrix; the implied full matrix is
    zero off the diagonal blocks by construction.
    """

    m: tuple[int, ...]
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.m) != len(self.blocks):
            raise StructureError("one block per multiplicity entry required")
        frozen = []
        for size, b in zip(self.m, self.blocks):
            b = np.array(b, dtype=float)
            if b.shape != (size, size):
                raise StructureError(
                    f"block of shape {b.shape} does not match multiplicity {size}"
                )
            if np.linalg.norm(b @ b.T - np.eye(size)) > _BLOCK_ORTH_TOL * size:
                raise StructureError(f"block of size {size} is not orthogonal")
            b.setflags(write=False)
            frozen.append(b)
        object.__setattr__(self, "m", tuple(int(s) for s in self.m))
        object.__setattr__(self, "blocks", tuple(frozen))

    @classmethod
    def identity(cls, m: tuple[int, ...]) -> BlockOrthogonal:
        return cls(tuple(m), tuple(np.eye(size) for size in m))

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
        return BlockOrthogonal(self.m, tuple(b.T for b in self.blocks))

    def compose(self, other: BlockOrthogonal) -> BlockOrthogonal:
        """Blockwise product self @ other; block structures must agree."""
        if self.m != other.m:
            raise StructureError(
                f"block structures differ: {self.m} vs {other.m}",
                details={"m_left": self.m, "m_right": other.m},
            )
        return BlockOrthogonal(
            self.m, tuple(a @ b for a, b in zip(self.blocks, other.blocks))
        )


@dataclass(frozen=True)
class IsotropyElement:
    """An orthogonal matrix commuting with the decomposed matrix, with the
    block element it came from and the decomposition that produced it."""

    gamma: np.ndarray
    source: Union[BlockOrthogonal, SignPattern]
    decomposition_id: str

    def __post_init__(self):
        g = np.array(self.gamma, dtype=float)
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    @property
    def n(self) -> int:
        return self.gamma.shape[0]


def conjugate(
    dec: SpectralDecomposition, sigma: Union[BlockOrthogonal, SignPattern]
) -> IsotropyElement:
    """gamma = V^T sigma V for a block element sigma of the decomposition.

    ``sigma`` may be a SignPattern (lifted to diagonal blocks) or a
    BlockOrthogonal whose structure must equal the decomposition's
    multiplicity vector.  Raises StructureError if gamma is not orthogonal
    (V is not) or does not commute with the matrix (sigma does not respect
    its eigenspaces).
    """
    if isinstance(sigma, SignPattern):
        if len(sigma.signs) != dec.n:
            raise StructureError(
                f"sign pattern length {len(sigma.signs)} != dimension {dec.n}"
            )
        gamma = (dec.v.T * sigma.to_diagonal()) @ dec.v
    else:
        if sigma.m != dec.multiplicities:
            raise StructureError(
                f"block structure {sigma.m} does not match decomposition "
                f"multiplicities {dec.multiplicities}",
                details={"sigma_m": sigma.m, "dec_m": dec.multiplicities},
            )
        gamma = dec.v.T @ sigma.full() @ dec.v
    n = dec.n
    orth = float(np.linalg.norm(gamma @ gamma.T - np.eye(n)))
    if orth > 1e-9 * n:
        raise StructureError(f"conjugated element lost orthogonality ({orth:.2e})")
    a = dec.reconstruct()
    comm = float(np.linalg.norm(gamma @ a - a @ gamma))
    if comm > 1e-8 * max(1.0, float(np.linalg.norm(a))):
        raise StructureError(f"conjugated element fails to commute ({comm:.2e})")
    return IsotropyElement(gamma, sigma, dec.decomposition_id)


def gamma2_elements(dec: SpectralDecomposition) -> list[IsotropyElement]:
    """All 2^n diagonal-sign symmetries V^T sigma V, ordered by the binary
    encoding of the sign vector (index 0 = identity, last = -identity).

    Unlike ``conjugate`` this does not check the elements: a sign pattern
    keeps every eigenvector, so each element is orthogonal and commutes
    with the matrix as far as V is orthogonal."""
    n = dec.n
    if n > GAMMA2_MAX_N:
        raise SizeCapError(
            f"2^{n} sign elements exceed the enumeration cap (n <= "
            f"{GAMMA2_MAX_N}); use sample_gamma instead"
        )
    # row k holds the signs of SignPattern.from_index(k, n)
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    signs = 1.0 - 2.0 * bits
    gammas = (dec.v.T[None] * signs[:, None, :]) @ dec.v
    return [
        IsotropyElement(g, SignPattern(tuple(s)), dec.decomposition_id)
        for g, s in zip(gammas, signs.tolist())
    ]


def sample_block_orthogonal(
    m: tuple[int, ...], rng: np.random.Generator
) -> BlockOrthogonal:
    """Haar sample from the block-orthogonal group with block sizes ``m``.

    Per block: Gaussian draw, QR factorization, column signs fixed so the
    triangular factor has a positive diagonal, then the first column is
    negated with probability 1/2 to cover both components of the block's
    orthogonal group.
    """
    blocks = []
    for size in m:
        g = rng.standard_normal((size, size))
        q, r = np.linalg.qr(g)
        q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
        if rng.random() < 0.5:
            q = q.copy()
            q[:, 0] = -q[:, 0]
        blocks.append(q)
    return BlockOrthogonal(tuple(m), tuple(blocks))


def sample_gamma(dec: SpectralDecomposition, seed: int) -> IsotropyElement:
    """Haar-distributed symmetry of the decomposed matrix; deterministic for
    a fixed seed."""
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


def commutator_residual(a, g) -> float:
    """||GA - AG||_F."""
    am = as_matrix(a)
    gm = as_matrix(g)
    if am.ndim != 2 or am.shape[0] != am.shape[1]:
        raise DimensionError(f"expected square matrix, got shape {am.shape}")
    if gm.shape != am.shape:
        raise DimensionError(f"shape mismatch: {am.shape} vs {gm.shape}")
    return float(np.linalg.norm(gm @ am - am @ gm))


def is_member(
    dec: Union[SpectralDecomposition, SymMatrix, np.ndarray],
    g,
    tol: float = MEMBER_TOL,
) -> bool:
    """Membership test via the commutation characterization: G belongs to the
    symmetry group iff it is orthogonal and commutes with the matrix.
    Checked directly (no recovery of the block factor), which is immune to
    basis choices inside degenerate eigenspaces.

    ``dec`` is a decomposition, whose matrix is rebuilt, or the symmetric
    matrix itself, which needs no decomposition at all."""
    gm = as_matrix(g)
    a = dec.reconstruct() if isinstance(dec, SpectralDecomposition) else as_matrix(dec)
    if gm.shape != a.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {gm.shape}")
    n = a.shape[0]
    if float(np.linalg.norm(gm @ gm.T - np.eye(n))) > tol * n:
        return False
    return commutator_residual(a, gm) <= tol * max(1.0, float(np.linalg.norm(a)))


def is_finite(dec: SpectralDecomposition) -> bool:
    """True iff the symmetry group is finite, i.e. all eigenvalues simple."""
    return all(m == 1 for m in dec.multiplicities)
