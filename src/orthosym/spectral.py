"""Dense symmetric eigendecomposition with deterministic ordering and clustering.

Everything downstream (symmetry groups, Procrustes, probes) is built on the
factorization A = V^T diag(lambda) V computed here by LAPACK (numpy's
``eigh``), with V stored row-wise: row i of V is the eigenvector for
lambda_i.  Eigenvalues are sorted ascending and grouped into multiplicity
clusters by a greedy gap rule.
"""

from __future__ import annotations

import hashlib
import math
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


def check_symmetric(a) -> bool:
    """True iff ||A - A^T||_F <= DEFAULT_SYMTOL * max(1, ||A||_F)."""
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
    return diff <= DEFAULT_SYMTOL * float(np.linalg.norm(b)) or diff * scale <= DEFAULT_SYMTOL


@dataclass(frozen=True)
class SymMatrix:
    """A validated real symmetric matrix.

    Construction rejects non-square or asymmetric inputs (relative to
    ``DEFAULT_SYMTOL``).  The stored array is read-only, so instances are
    freely shareable across threads.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = _validated(np.array(self.entries, dtype=float))
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.entries.astype(dtype)
        return self.entries


def _validated(m: np.ndarray) -> np.ndarray:
    """``m`` itself if it is a square, finite matrix symmetric within
    ``DEFAULT_SYMTOL``; raises otherwise."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    # the largest magnitude is NaN or inf iff some entry is
    if not math.isfinite(np.abs(m).max(initial=0.0)):
        raise ValueError("matrix entries must be finite")
    # an exactly symmetric matrix needs no norms
    if not (m == m.T).all() and not check_symmetric(m):
        raise SymmetryError(f"matrix is not symmetric within symtol={DEFAULT_SYMTOL:g}")
    return m


def as_sym(a) -> SymMatrix:
    return a if isinstance(a, SymMatrix) else SymMatrix(as_matrix(a))


def default_cluster_tol(lambdas) -> float:
    """1e-8 relative to the largest |lambda|, so that scaling the matrix
    scales the tolerance with it; the zero matrix gets 0 (one cluster)."""
    return 1e-8 * float(np.abs(np.asarray(lambdas, dtype=float)).max())


def cluster_eigenvalues(lambdas, cluster_tol: float) -> tuple[int, ...]:
    """Greedy left-to-right grouping of sorted eigenvalues.

    A new cluster starts whenever the gap to the previous eigenvalue exceeds
    ``cluster_tol``.  Returns the multiplicity vector m with sum(m) = n.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("expected a nonempty 1-d array of eigenvalues")
    gaps = np.diff(lam)
    if gaps.size and float(gaps.min()) < 0:
        raise ValueError("eigenvalues must be nondecreasing")
    return _multiplicities(gaps.tolist(), cluster_tol)


def _multiplicities(gaps: list[float], cluster_tol: float) -> tuple[int, ...]:
    # the clustering rule itself, applied to the gaps of sorted eigenvalues
    # NaN passes a plain ``< 0`` test and would merge every eigenvalue
    if not (math.isfinite(cluster_tol) and cluster_tol >= 0):
        raise ValueError(f"cluster_tol must be finite and nonnegative, got {cluster_tol:g}")
    m = [1]
    for g in gaps:
        if g > cluster_tol:
            m.append(1)
        else:
            m[-1] += 1
    return tuple(m)


def _borderline_gaps(gaps: list[float], cluster_tol: float) -> tuple[int, ...]:
    # A gap within a factor 10 of the tolerance is an ambiguous merge/split
    # decision; callers get the boundary indices instead of a silent choice.
    if cluster_tol == 0.0:
        return ()
    lo, hi = 0.1 * cluster_tol, 10.0 * cluster_tol
    return tuple(i for i, g in enumerate(gaps) if lo < g <= hi)


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
        """A = V^T diag(lambdas) V, built on the first call and shared
        (read-only) by every later one."""
        return self._matrix

    @cached_property
    def _matrix(self) -> np.ndarray:
        a = (self.v.T * self.lambdas) @ self.v
        a.setflags(write=False)
        return a

    def reversed(self) -> SpectralDecomposition:
        """The same decomposition with eigenvalues in descending order."""
        lam = self.lambdas[::-1].copy()
        v = self.v[::-1].copy()
        clusters = tuple((rep, m) for rep, m in reversed(self.clusters))
        border = tuple(sorted(self.n - 2 - i for i in self.borderline))
        return SpectralDecomposition(v, lam, clusters, self.cluster_tol, border)


def _fix_signs(u: np.ndarray) -> np.ndarray:
    # sign convention: first entry of largest magnitude in each eigenvector
    # is positive (ties resolved by argmax taking the lowest index); that
    # entry of a unit vector is nonzero, so its sign is +/-1.0, and scaling
    # by -1.0 is as exact as negation
    k = np.abs(u).argmax(axis=0)
    return u * np.sign(u[k, np.arange(u.shape[1])])


def eig_sym(a, cluster_tol: float | None = None) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix by LAPACK (numpy's ``eigh``).

    Deterministic for fixed input: ascending eigenvalue sort (stable) and a
    fixed eigenvector sign convention, so two calls on identical input give
    bit-identical output, in one process or in processes that run BLAS with
    different thread counts.

    Raises ConvergenceError if LAPACK fails to converge, and ValueError if
    the input is not exactly symmetric and (A + A^T)/2 overflows, or if an
    eigenvalue overflows.
    """
    m = a.entries if isinstance(a, SymMatrix) else _validated(np.asarray(a, dtype=float))
    # (x + x)/2 == x whenever x + x is finite, so skipping an exactly
    # symmetric matrix changes no bits, and its entries near the top of the
    # float range cannot overflow
    if (m == m.T).all():
        work = m
    else:
        with np.errstate(over="ignore"):
            work = (m + m.T) / 2.0
    top = np.abs(work).max(initial=0.0)
    if not math.isfinite(top):
        raise ValueError("(A + A^T)/2 overflows the float range")
    # solve at max |A_ij| in [0.5, 1) and scale back by the same power of
    # two: both steps are exact, so eig_sym(2^k A) = 2^k eig_sym(A), and
    # LAPACK, which can fail to converge on a matrix of huge entries mixed
    # with tiny ones, sees the same matrix at every scale
    _, shift = math.frexp(top)
    try:
        diag, u = np.linalg.eigh(np.ldexp(work, -shift))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    try:
        # np.ldexp below would return inf, with only a warning, for an
        # eigenvalue past the float range; math.ldexp raises instead
        math.ldexp(float(np.abs(diag).max(initial=0.0)), shift)
    except OverflowError:
        raise ValueError("an eigenvalue overflows the float range") from None
    order = diag.argsort(kind="stable")
    lam = np.ldexp(diag[order], shift)
    u = _fix_signs(u[:, order])
    tol = default_cluster_tol(lam) if cluster_tol is None else float(cluster_tol)
    values = lam.tolist()
    # float subtraction, unlike np.diff, does not warn when a gap between
    # eigenvalues of opposite sign overflows; an infinite gap splits correctly
    gaps = [b - a for a, b in zip(values, values[1:])]
    clusters, start = [], 0
    for size in _multiplicities(gaps, tol):
        # the mean of one value is that value; larger clusters keep np.mean
        rep = values[start] if size == 1 else float(np.mean(lam[start : start + size]))
        clusters.append((rep, size))
        start += size
    return SpectralDecomposition(
        v=u.T,
        lambdas=lam,
        clusters=tuple(clusters),
        cluster_tol=tol,
        borderline=_borderline_gaps(gaps, tol),
    )


def isospectral(a, b, tol: float) -> bool:
    """True iff the sorted spectra of A and B agree elementwise within tol."""
    sa, sb = as_sym(a), as_sym(b)
    if sa.n != sb.n:
        raise DimensionError(f"dimension mismatch: {sa.n} vs {sb.n}")
    la = eig_sym(sa).lambdas
    lb = eig_sym(sb).lambdas
    return float(np.max(np.abs(la - lb))) <= tol


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
