"""Two-sided orthogonal Procrustes for symmetric matrices.

Minimizes ||PA - BP||_F over orthogonal P.  With eigendecompositions
D_A = V_A A V_A^T and D_B = V_B B V_B^T (both spectra sorted the same way)
the canonical optimum is P = V_B^T V_A, and the full family of solutions of
this form is obtained by inserting block symmetry factors sigma_A, sigma_B
of A and B: P = V_B^T sigma_B^T sigma_A V_A.  Every member attains the same
cost ||D_A - D_B||_F.  A solution keeps only P, not the factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, StructureError
from .isotropy import _chunk, _residual, _residual_with, sample_block_stack
# nothing here calls as_sym; it is imported only because perfbench's
# binding test calls procrustes.as_sym (ROADMAP item 3 retires both)
from .spectral import SpectralDecomposition, _scaled, _unscaled, as_sym, eig_sym


@dataclass(frozen=True, eq=False)
class ProcrustesSolution:
    """An orthogonal minimizer P with its achieved cost and the spectral
    lower bound."""

    p: np.ndarray
    cost: float
    lower_bound: float

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


def cost(a, b, p) -> float:
    """||PA - BP||_F, infinite only where it is past the float range."""
    r, _, shift = _residual(a, b, p)
    return _unscaled(r, shift)


def _ordered_pair(a, b, order: str) -> tuple[SpectralDecomposition, SpectralDecomposition, np.ndarray, np.ndarray, float]:
    """The decompositions of A and B, then V_A and V_B with both spectra
    sorted per ``order``, and the lower bound ||D_A - D_B||_F in that order."""
    if order not in ("ascending", "descending"):
        raise ValueError(f"order must be 'ascending' or 'descending', got {order!r}")
    da, db = eig_sym(a), eig_sym(b)
    if da.n != db.n:
        raise DimensionError(f"dimension mismatch: {da.n} vs {db.n}")
    va, vb, la, lb = da.v, db.v, da.lambdas, db.lambdas
    if order == "descending":
        # reversing both spectra pairs the same eigenvalues, so each V is
        # read bottom row first, copied in C order: V's memory layout sets
        # the bits of the product V_B^T V_A
        va, vb = np.ascontiguousarray(va[::-1]), np.ascontiguousarray(vb[::-1])
        la, lb = la[::-1], lb[::-1]
    # both spectra over one power of two
    shift, la, lb = _scaled(la, lb)
    return da, db, va, vb, _unscaled(float(np.linalg.norm(la - lb)), shift)


def solve(a, b, order: str = "ascending") -> ProcrustesSolution:
    """Canonical optimal solution P = V_B^T V_A with both spectra sorted per
    ``order``; the lower bound is ||D_A - D_B||_F in that ordering."""
    _, _, va, vb, lower = _ordered_pair(a, b, order)
    p = vb.T @ va
    return ProcrustesSolution(
        p=p,
        cost=cost(a, b, p),
        lower_bound=lower,
    )


def family_sample(a, b, seed: int, count: int) -> list[ProcrustesSolution]:
    """``count`` optimal solutions with independently Haar-sampled symmetry
    factors sigma_A, sigma_B.  Requires the multiplicity vectors of A and B
    to agree (they do whenever A and B are isospectral); otherwise the block
    products in the family formula are ill-matched and a StructureError is
    raised carrying both vectors."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    da, db, _, _, lower = _ordered_pair(a, b, "ascending")
    if da.multiplicities != db.multiplicities:
        raise StructureError(
            f"multiplicity vectors differ: {da.multiplicities} vs "
            f"{db.multiplicities}; the solution family is only defined for "
            f"matching block structures",
            details={"m_a": da.multiplicities, "m_b": db.multiplicities},
        )
    rng = np.random.default_rng(seed)
    # sigma_A of solution i is sample 2i of the stack and sigma_B sample
    # 2i + 1, drawn from one generator in that order, a chunk at a time
    step = max(1, _chunk(da.n) // 2)
    # each cost is cost(a, b, p), with A and B scaled once
    residual = _residual_with(a, b)
    out = []
    for lo in range(0, count, step):
        sigma = sample_block_stack(da.multiplicities, [rng] * (2 * min(step, count - lo)))
        for p in db.v.T @ (sigma[1::2].transpose(0, 2, 1) @ sigma[::2]) @ da.v:
            r, _, shift = residual(p)
            out.append(ProcrustesSolution(p=p, cost=_unscaled(r, shift), lower_bound=lower))
    return out

