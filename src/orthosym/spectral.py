"""Dense symmetric eigendecomposition with deterministic ordering and clustering.

Everything downstream (symmetry groups, Procrustes, probes) is built on the
factorization A = V^T diag(lambda) V computed here by LAPACK (numpy's
``eigh``), with V stored row-wise: row i of V is the eigenvector for
lambda_i.  Eigenvalues are sorted ascending and grouped into multiplicity
clusters by a greedy gap rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConvergenceError, DimensionError, SymmetryError

DEFAULT_SYMTOL = 1e-10


def _scaled(*operands):
    """s and each operand over 2^s, for the s that puts the largest |entry|
    of all operands (arrays, or floats, which ``math`` scales 5 us faster)
    in [0.5, 1), or s = 0 if every entry is 0.  A constant term is one more
    operand (the I of G G^T - I, tol in tol * max(1, ||A||_F)), so that
    2^-s cannot overflow.  ``_unscaled(norm, s)`` of a norm of the scaled
    operands is the norm itself, bit for bit unless an entry is subnormal."""
    top = max(
        abs(x) if isinstance(x, float) else float(np.abs(x).max(initial=0.0))
        for x in operands
    )
    shift = math.frexp(top)[1]
    return shift, *(
        math.ldexp(x, -shift) if isinstance(x, float) else np.ldexp(x, -shift)
        for x in operands
    )


def _unscaled(x: float, shift: int) -> float:
    """x * 2^shift, infinite past the float range."""
    try:
        return math.ldexp(x, shift)
    except OverflowError:
        return math.inf


def check_symmetric(a) -> bool:
    """True iff ||A - A^T||_F <= DEFAULT_SYMTOL * max(1, ||A||_F)."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    # the inequality above divided by 2^s; at a zero tolerance the shift
    # comes from A alone, so a subnormal asymmetry is scaled up and seen
    _, b, tol = _scaled(m, DEFAULT_SYMTOL)
    return bool(np.linalg.norm(b - b.T) <= max(tol, DEFAULT_SYMTOL * np.linalg.norm(b)))


def as_sym(a) -> np.ndarray:
    """``a`` as a stored matrix: a validated, read-only float64 array.

    Raises DimensionError unless ``a`` is square, ValueError unless it is
    finite and SymmetryError unless it is symmetric within DEFAULT_SYMTOL.
    A read-only float64 array is returned as it is; anything else is copied,
    so the caller's array is never frozen."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    # the largest magnitude is NaN or inf iff some entry is
    if not math.isfinite(np.abs(m).max(initial=0.0)):
        raise ValueError("matrix entries must be finite")
    # an exactly symmetric matrix needs no norms
    if not (m == m.T).all() and not check_symmetric(m):
        raise SymmetryError(f"matrix is not symmetric within symtol={DEFAULT_SYMTOL:g}")
    if m.flags.writeable:
        m = m.copy()
        m.setflags(write=False)
    return m


@dataclass(frozen=True)
class SymMatrix:
    """``as_sym`` of a matrix, held as ``entries``; kept for code written
    against it.  ``np.asarray`` of an instance is the entries themselves."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", as_sym(self.entries))

    def __array__(self, dtype=None, copy=None):
        # the read-only entries themselves unless a copy or another dtype
        # is asked for, so np.asarray(m, dtype=float) copies nothing and
        # np.array(m) returns a writable copy
        dtype = np.dtype(float if dtype is None else dtype)
        if copy is False and dtype != self.entries.dtype:
            raise ValueError("converting a SymMatrix to another dtype needs a copy")
        return self.entries.astype(dtype, copy=bool(copy))


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
        # C order whatever the input's: V's memory layout sets the bits of
        # later BLAS products
        v = np.array(self.v, dtype=float, order="C")
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
        import hashlib  # only here: it costs a few ms of every start

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
    # (a column of one matrix of the stack) is positive, ties resolved by
    # argmax taking the lowest index; that entry of a unit vector is
    # nonzero, so its sign is +/-1.0, and scaling by -1.0 is as exact as
    # negation.  An empty basis has no entry to take an argmax of, and no
    # sign to fix
    if not u.size:
        return u
    k = np.abs(u).argmax(axis=1, keepdims=True)
    return u * np.sign(u[np.arange(len(u))[:, None, None], k, np.arange(u.shape[2])])


def eig_sym(a, cluster_tol: float | None = None) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix by LAPACK (numpy's ``eigh``).

    Deterministic for fixed input: ascending eigenvalues, as LAPACK returns
    them, and a fixed eigenvector sign convention, so two calls on identical
    input give bit-identical output, in one process or in processes that run
    BLAS with different thread counts.

    The input is checked as ``as_sym`` checks it on every call.  The last
    two decompositions are remembered, keyed by the exact entries and the
    bits of ``cluster_tol``, and a repeated call returns the same read-only
    decomposition.  Raises ConvergenceError if LAPACK fails to converge, and
    ValueError if an eigenvalue overflows.
    """
    m = as_sym(a)
    # the bit pattern, so that -0.0 and 0.0 are two keys
    tol = None if cluster_tol is None else float(cluster_tol).hex()
    return _decompose(m.shape, m.tobytes(), tol)


# an error is not stored, so it is raised again on every call
@lru_cache(maxsize=2)
def _decompose(shape, entries, cluster_tol_hex) -> SpectralDecomposition:
    return _solve(np.frombuffer(entries).reshape(1, *shape), cluster_tol_hex)[0]


def eig_stack(stack) -> list[SpectralDecomposition]:
    """``eig_sym`` of each matrix of a (k, n, n) stack, in one LAPACK call:
    element i is bit for bit ``eig_sym(stack[i])``, memo aside.

    Raises DimensionError unless the stack holds square matrices, and for
    the first matrix that ``as_sym`` rejects, the error ``as_sym`` raises
    for it; then as ``eig_sym`` does."""
    s = np.asarray(stack, dtype=float)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise DimensionError(f"expected a (k, n, n) stack of square matrices, got shape {s.shape}")
    # a matrix that is finite and exactly symmetric passes as_sym; any other
    # goes through it, in order, and the first that it rejects raises
    finite = np.isfinite(np.abs(s).max(axis=(1, 2), initial=0.0))
    for j in np.flatnonzero(~(finite & (s == s.swapaxes(1, 2)).all(axis=(1, 2)))).tolist():
        as_sym(s[j])
    return _solve(s)


def _solve(stack, cluster_tol_hex=None) -> list[SpectralDecomposition]:
    """The decompositions of a validated (k, n, n) stack, each solved as it
    would be alone; a LAPACK failure is raised as ConvergenceError, and the
    first error of ``_spectrum``, in stack order, as it is."""
    # each matrix is solved at max |A_ij| in [0.5, 1) and scaled back by the
    # same power of two: both steps are exact, so eig_sym(2^k A) =
    # 2^k eig_sym(A), and LAPACK, which can fail to converge on a matrix of
    # huge entries mixed with tiny ones, sees the same matrix at every scale
    shift = np.frexp(np.abs(stack).max(axis=(1, 2), keepdims=True, initial=0.0))[1]
    work = np.ldexp(stack, -shift)
    # a matrix that is not exactly symmetric is replaced by (A + A^T)/2,
    # taken at that scale, where it cannot overflow, and scaled again, as it
    # can fall below 0.5: the total shift is that of (A + A^T)/2, and the
    # bits are those of scaling it, unless an entry is subnormal.  An
    # exactly symmetric matrix is its own mean, bit for bit, with no
    # further shift, so a stack is symmetrised whole or not at all
    if not (stack == stack.swapaxes(1, 2)).all():
        work = (work + work.swapaxes(1, 2)) / 2.0
        extra = np.frexp(np.abs(work).max(axis=(1, 2), keepdims=True, initial=0.0))[1]
        work = np.ldexp(work, -extra)
        shift += extra
    try:
        # LAPACK returns the eigenvalues in ascending order
        diag, u = np.linalg.eigh(work)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    v = _fix_signs(u).swapaxes(1, 2)
    return [
        SpectralDecomposition(vi, *_spectrum(d, s, cluster_tol_hex))
        for vi, d, s in zip(v, diag, shift.ravel().tolist())
    ]


def _spectrum(diag, shift, cluster_tol_hex):
    """The eigenvalues ``diag`` of a matrix solved at a scale of 2^-shift,
    scaled back and clustered: (lambdas, clusters, cluster_tol, borderline)
    as ``SpectralDecomposition`` holds them.

    Raises ValueError if an eigenvalue overflows or the tolerance (given as
    ``float.hex``, or None for the default) is negative or not finite."""
    # diag is ascending, as LAPACK returns it, so the largest |lambda| is
    # at one end
    top = max(abs(float(diag[0])), abs(float(diag[-1]))) if len(diag) else 0.0
    # np.ldexp below would return inf, with only a warning, for an
    # eigenvalue past the float range
    if math.isinf(_unscaled(top, shift)):
        raise ValueError("an eigenvalue overflows the float range")
    lam = np.ldexp(diag, shift)
    # 1e-8 relative to the largest |lambda|, so that scaling the matrix
    # scales the tolerance with it; the zero matrix gets 0 (one cluster)
    tol = _unscaled(1e-8 * top, shift) if cluster_tol_hex is None else float.fromhex(cluster_tol_hex)
    # NaN passes a plain ``< 0`` test and would merge every eigenvalue
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"cluster_tol must be finite and nonnegative, got {tol:g}")
    # the greedy gap rule; a gap within a factor 10 of the tolerance is an
    # ambiguous merge/split decision, and callers get its index instead of a
    # silent choice
    values = lam.tolist()
    clusters, borderline, start = [], [], 0
    for i in range(1, len(values) + 1):
        if i < len(values):
            # float subtraction, unlike np.diff, does not warn when a gap
            # between eigenvalues of opposite sign overflows; an infinite
            # gap splits correctly
            gap = values[i] - values[i - 1]
            if 0.1 * tol < gap <= 10.0 * tol:
                borderline.append(i - 1)
            if gap <= tol:
                continue
        # the mean of one value is that value; a larger cluster's is taken
        # of the scaled eigenvalues, whose sum cannot overflow, as np.mean
        # takes it (the pairwise sum over the count) without its overhead
        size = i - start
        rep = values[start] if size == 1 else _unscaled(float(np.add.reduce(diag[start:i])) / size, shift)
        clusters.append((rep, size))
        start = i
    return lam, tuple(clusters), tol, tuple(borderline)


def isospectral(a, b, tol: float) -> bool:
    """True iff the sorted spectra of A and B agree elementwise within tol."""
    # an infinite tol accepts any pair and a NaN one rejects every pair
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol:g}")
    la = eig_sym(a).lambdas
    lb = eig_sym(b).lambdas
    if len(la) != len(lb):
        raise DimensionError(f"dimension mismatch: {len(la)} vs {len(lb)}")
    # spectra and tol divided by 2^s, so that la - lb cannot overflow
    _, la, lb, tol = _scaled(la, lb, tol)
    return bool(np.abs(la - lb).max(initial=0.0) <= tol)


def align_basis(dec: SpectralDecomposition, target) -> SpectralDecomposition:
    """Re-gauge the eigenbasis to best match ``target`` (rows = vectors).

    Within each multiplicity cluster the eigenbasis is only determined up to
    an orthogonal mixing; this picks, per cluster, the mixing Q minimizing
    ||Q V_c - T_c||_F (a one-sided Procrustes fit).  The result is an exact
    decomposition of the same matrix whose basis is as close as possible to
    the target.  Useful for reproducing reference symmetry elements
    that depend on the basis chosen inside degenerate eigenspaces.
    """
    t = np.asarray(target, dtype=float)
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
