"""Dense symmetric eigendecomposition with deterministic ordering and clustering.

Everything downstream (symmetry groups, Procrustes, probes) is built on the
factorization A = V^T diag(lambda) V computed here by LAPACK (numpy's
``eigh``), with V stored row-wise: row i of V is the eigenvector for
lambda_i.  Eigenvalues are sorted ascending and grouped into multiplicity
clusters by a greedy gap rule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DimensionError, SymmetryError

DEFAULT_SYMTOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce input (array-like or SymMatrix) to a float ndarray."""
    if isinstance(a, SymMatrix):
        return a.entries
    return np.asarray(a, dtype=float)


def check_symmetric(a, symtol: float = DEFAULT_SYMTOL) -> bool:
    """True iff ||A - A^T||_F <= symtol * max(1, ||A||_F)."""
    m = as_matrix(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    scale = float(np.max(np.abs(m), initial=0.0))
    if scale == 0.0:
        return True
    # the inequality above divided by max|A_ij|, whose norms can neither
    # overflow nor underflow
    b = m / scale
    diff = float(np.linalg.norm(b - b.T))
    return diff <= symtol * float(np.linalg.norm(b)) or diff * scale <= symtol


@dataclass(frozen=True)
class SymMatrix:
    """A validated real symmetric matrix.

    Construction rejects non-square or asymmetric inputs (relative to
    ``symtol``).  The stored array is read-only, so instances are freely
    shareable across threads.
    """

    entries: np.ndarray
    symtol: float = DEFAULT_SYMTOL

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        if not check_symmetric(m, self.symtol):
            raise SymmetryError(
                f"matrix is not symmetric within symtol={self.symtol:g}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.entries.astype(dtype)
        return self.entries


def as_sym(a, symtol: float = DEFAULT_SYMTOL) -> SymMatrix:
    return a if isinstance(a, SymMatrix) else SymMatrix(as_matrix(a), symtol)


def default_cluster_tol(lambdas) -> float:
    return 1e-8 * max(1.0, float(np.max(np.abs(lambdas))))


def cluster_eigenvalues(lambdas, cluster_tol: float) -> tuple[int, ...]:
    """Greedy left-to-right grouping of sorted eigenvalues.

    A new cluster starts whenever the gap to the previous eigenvalue exceeds
    ``cluster_tol``.  Returns the multiplicity vector m with sum(m) = n.
    """
    if cluster_tol < 0:
        raise ValueError(f"cluster_tol must be nonnegative, got {cluster_tol:g}")
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("expected a nonempty 1-d array of eigenvalues")
    gaps = np.diff(lam)
    if lam.size > 1 and float(np.min(gaps)) < 0:
        raise ValueError("eigenvalues must be nondecreasing")
    m = [1]
    for g in gaps:
        if g > cluster_tol:
            m.append(1)
        else:
            m[-1] += 1
    return tuple(m)


def _borderline_gaps(lam: np.ndarray, cluster_tol: float) -> tuple[int, ...]:
    # A gap within a factor 10 of the tolerance is an ambiguous merge/split
    # decision; callers get the boundary indices instead of a silent choice.
    if lam.size < 2 or cluster_tol == 0.0:
        return ()
    gaps = np.diff(lam)
    lo, hi = 0.1 * cluster_tol, 10.0 * cluster_tol
    return tuple(int(i) for i in np.nonzero((gaps > lo) & (gaps <= hi))[0])


@dataclass(frozen=True)
class SpectralDecomposition:
    """Result of eig_sym: V (rows are eigenvectors), ascending eigenvalues,
    and their clustering into multiplicity blocks.

    Satisfies V A V^T = diag(lambdas) for the decomposed matrix A.
    ``clusters`` holds (representative value, multiplicity) pairs;
    ``borderline`` lists gap indices that fell within a factor 10 of
    ``cluster_tol`` and were therefore ambiguous.
    """

    v: np.ndarray
    lambdas: np.ndarray
    clusters: tuple[tuple[float, int], ...]
    cluster_tol: float
    borderline: tuple[int, ...] = ()

    def __post_init__(self):
        v = np.array(self.v, dtype=float)
        lam = np.array(self.lambdas, dtype=float)
        v.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "lambdas", lam)

    @property
    def n(self) -> int:
        return self.v.shape[0]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.clusters)

    @cached_property
    def decomposition_id(self) -> str:
        h = hashlib.sha256()
        h.update(self.v.tobytes())
        h.update(self.lambdas.tobytes())
        return h.hexdigest()[:12]

    def cluster_slices(self) -> list[slice]:
        out, start = [], 0
        for _, m in self.clusters:
            out.append(slice(start, start + m))
            start += m
        return out

    def reconstruct(self) -> np.ndarray:
        """A = V^T diag(lambdas) V."""
        return (self.v.T * self.lambdas) @ self.v

    def reversed(self) -> SpectralDecomposition:
        """The same decomposition with eigenvalues in descending order."""
        lam = self.lambdas[::-1].copy()
        v = self.v[::-1].copy()
        clusters = tuple((rep, m) for rep, m in reversed(self.clusters))
        border = tuple(sorted(self.n - 2 - i for i in self.borderline))
        return SpectralDecomposition(v, lam, clusters, self.cluster_tol, border)


def _fix_signs(u: np.ndarray) -> np.ndarray:
    # sign convention: first entry of largest magnitude in each eigenvector
    # is positive (ties resolved by argmax taking the lowest index)
    for j in range(u.shape[1]):
        k = int(np.argmax(np.abs(u[:, j])))
        if u[k, j] < 0:
            u[:, j] = -u[:, j]
    return u


def eig_sym(
    a,
    cluster_tol: float | None = None,
    symtol: float = DEFAULT_SYMTOL,
) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix by LAPACK (numpy's ``eigh``).

    Deterministic for fixed input: ascending eigenvalue sort (stable) and a
    fixed eigenvector sign convention, so two calls on identical input give
    bit-identical output, in one process or in processes that run BLAS with
    different thread counts.

    Raises ConvergenceError if LAPACK fails to converge.
    """
    sym = as_sym(a, symtol)
    work = (sym.entries + sym.entries.T) / 2.0
    # solve at max |A_ij| in [0.5, 1) and scale back by the same power of
    # two: both steps are exact, so eig_sym(2^k A) = 2^k eig_sym(A), and
    # LAPACK, which can fail to converge on a matrix of huge entries mixed
    # with tiny ones, sees the same matrix at every scale
    _, shift = np.frexp(np.max(np.abs(work), initial=0.0))
    try:
        diag, u = np.linalg.eigh(np.ldexp(work, -shift))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    order = np.argsort(diag, kind="stable")
    lam = np.ldexp(diag[order], shift)
    u = _fix_signs(u[:, order])
    tol = default_cluster_tol(lam) if cluster_tol is None else float(cluster_tol)
    m = cluster_eigenvalues(lam, tol)
    clusters, start = [], 0
    for size in m:
        clusters.append((float(np.mean(lam[start : start + size])), size))
        start += size
    return SpectralDecomposition(
        v=u.T,
        lambdas=lam,
        clusters=tuple(clusters),
        cluster_tol=tol,
        borderline=_borderline_gaps(lam, tol),
    )


def align_basis(dec: SpectralDecomposition, target) -> SpectralDecomposition:
    """Re-gauge the eigenbasis to best match ``target`` (rows = vectors).

    Within each multiplicity cluster the eigenbasis is only determined up to
    an orthogonal mixing; this picks, per cluster, the mixing Q minimizing
    ||Q V_c - T_c||_F (a one-sided Procrustes fit).  The result is an exact
    decomposition of the same matrix whose basis is as close as possible to
    the target.  Useful for reproducing reference symmetry elements
    that depend on the basis chosen inside degenerate eigenspaces.
    """
    t = as_matrix(target)
    if t.shape != dec.v.shape:
        raise DimensionError(
            f"target basis shape {t.shape} does not match decomposition "
            f"shape {dec.v.shape}"
        )
    v = dec.v.copy()
    for sl in dec.cluster_slices():
        vc, tc = dec.v[sl, :], t[sl, :]
        uu, _, wt = np.linalg.svd(tc @ vc.T)
        v[sl, :] = (uu @ wt) @ vc
    return replace(dec, v=v)
