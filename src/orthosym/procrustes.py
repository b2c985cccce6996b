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
from .isotropy import sample_block_orthogonal
from .spectral import SpectralDecomposition, as_sym, eig_sym


@dataclass(frozen=True)
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
    """||PA - BP||_F."""
    am, bm, pm = (np.asarray(x, dtype=float) for x in (a, b, p))
    if am.shape != bm.shape or am.shape != pm.shape:
        raise DimensionError(
            f"operand shapes disagree: {am.shape}, {bm.shape}, {pm.shape}"
        )
    return float(np.linalg.norm(pm @ am - bm @ pm))


def _ordered_pair(a, b, order: str) -> tuple[SpectralDecomposition, SpectralDecomposition]:
    if order not in ("ascending", "descending"):
        raise ValueError(f"order must be 'ascending' or 'descending', got {order!r}")
    sa, sb = as_sym(a), as_sym(b)
    if sa.n != sb.n:
        raise DimensionError(f"dimension mismatch: {sa.n} vs {sb.n}")
    da, db = eig_sym(sa), eig_sym(sb)
    if order == "descending":
        da, db = da.reversed(), db.reversed()
    return da, db


def solve(a, b, order: str = "ascending") -> ProcrustesSolution:
    """Canonical optimal solution P = V_B^T V_A with both spectra sorted per
    ``order``; the lower bound is ||D_A - D_B||_F in that ordering."""
    da, db = _ordered_pair(a, b, order)
    p = db.v.T @ da.v
    return ProcrustesSolution(
        p=p,
        cost=cost(a, b, p),
        lower_bound=float(np.linalg.norm(da.lambdas - db.lambdas)),
    )


def family_sample(a, b, seed: int, count: int) -> list[ProcrustesSolution]:
    """``count`` optimal solutions with independently Haar-sampled symmetry
    factors sigma_A, sigma_B.  Requires the multiplicity vectors of A and B
    to agree (they do whenever A and B are isospectral); otherwise the block
    products in the family formula are ill-matched and a StructureError is
    raised carrying both vectors."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    da, db = _ordered_pair(a, b, "ascending")
    if da.multiplicities != db.multiplicities:
        raise StructureError(
            f"multiplicity vectors differ: {da.multiplicities} vs "
            f"{db.multiplicities}; the solution family is only defined for "
            f"matching block structures",
            details={"m_a": da.multiplicities, "m_b": db.multiplicities},
        )
    lower = float(np.linalg.norm(da.lambdas - db.lambdas))
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        sigma_a = sample_block_orthogonal(da.multiplicities, rng)
        sigma_b = sample_block_orthogonal(db.multiplicities, rng)
        p = db.v.T @ sigma_b.transposed().compose(sigma_a).full() @ da.v
        out.append(ProcrustesSolution(p=p, cost=cost(a, b, p), lower_bound=lower))
    return out

