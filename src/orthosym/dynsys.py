"""The guiding cubic system x' = A(mu) x - ||x||^2 x on R^3.

The coefficient matrix commutes with the coordinate swap S (x2 <-> x3) for
every mu, and its spectrum is lambda_1 = 4 mu (simple) and
lambda_2 = 4(1 - mu) (double).  A nonzero point is an equilibrium exactly
when it is an eigenvector scaled so that ||x||^2 equals its (positive)
eigenvalue, so the equilibrium set is assembled analytically from the
spectrum: the origin, a pair of points for each simple positive eigenvalue,
a circle for each double one, and a sphere when all three coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError
from .spectral import as_sym, eig_stack, eig_sym

#: The coordinate swap commuting with the coefficient matrix for every mu.
SWAP_23 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
SWAP_23.setflags(write=False)


def guiding_matrix(mu: float) -> np.ndarray:
    """The 3x3 coefficient matrix of the guiding system, as ``as_sym`` returns it.

    Raises ValueError, naming mu, unless mu and every entry of the matrix
    are finite (|mu| up to about 6.4e307)."""
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu:g}")
    c = 2.0 * mu - 1.0
    r = math.sqrt(2.0) * c
    # r is the entry of largest magnitude to within 2: |c| <= |r| and
    # |3 - 2 mu| <= |r| + 2
    if not math.isfinite(r):
        raise ValueError(f"mu is too large for the guiding matrix, whose entries overflow, got {mu:g}")
    return as_sym(
        np.array(
            [
                [2.0, r, r],
                [r, 3.0 - 2.0 * mu, c],
                [r, c, 3.0 - 2.0 * mu],
            ]
        )
    )


def spectrum_formula(mu: float) -> tuple[float, float]:
    """Analytic eigenvalues (4 mu with multiplicity 1, 4(1 - mu) with
    multiplicity 2); the closed-form oracle for the numerical spectrum."""
    return 4.0 * mu, 4.0 * (1.0 - mu)


def rhs(x, mu: float) -> np.ndarray:
    """A(mu) x - ||x||^2 x."""
    xv = np.asarray(x, dtype=float)
    return guiding_matrix(mu) @ xv - float(xv @ xv) * xv


# component kinds by the dimension m of the eigenspace they span
_KINDS = ("origin", "point-pair", "circle", "sphere")


@dataclass(frozen=True, slots=True, eq=False)
class Component:
    """One orbit of equilibria: the sphere of ``radius`` in the span of the
    m orthonormal rows of ``basis`` (shape (m, 3)), on which the symmetry
    group acts as O(m).  Its kind is read off m: the origin (m = 0, radius
    0), a point pair, a circle or a sphere."""

    basis: np.ndarray
    radius: float

    def __post_init__(self):
        # a read-only float64 2-D array (rows of a V) is kept, as by as_sym
        b = self.basis
        if not (isinstance(b, np.ndarray) and b.dtype == np.float64 and b.ndim == 2 and not b.flags.writeable):
            b = np.atleast_2d(np.array(b, dtype=float))
            b.setflags(write=False)
            object.__setattr__(self, "basis", b)

    @property
    def kind(self) -> str:
        return _KINDS[len(self.basis)]

    def points(self, count: int = 16) -> np.ndarray:
        """The origin, the two points of a pair, ``count`` evenly spaced
        points of a circle or a ``count``-point golden-angle spiral on a
        sphere."""
        m = len(self.basis)
        if m == 0:
            coords = np.zeros((1, 0))
        elif m == 1:
            coords = np.array([[1.0], [-1.0]])
        elif m == 2:
            theta = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
            coords = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        else:
            k = np.arange(count, dtype=float)
            z = 1.0 - 2.0 * (k + 0.5) / count
            phi = k * math.pi * (3.0 - math.sqrt(5.0))
            rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
            coords = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
        return self.radius * coords @ self.basis

    def distance(self, x) -> float:
        """Distance from x to the component: the off-span part of x and the
        gap between the radius and the norm of its in-span part."""
        xv = np.asarray(x, dtype=float)
        y = self.basis @ xv
        # the off-span part is formed explicitly to avoid cancellation for
        # points on the component
        off_span = float(np.linalg.norm(xv - self.basis.T @ y))
        return math.hypot(off_span, float(np.linalg.norm(y)) - self.radius)


@dataclass(frozen=True, slots=True, eq=False)
class EquilibriumSet:
    """The classified equilibrium manifold of the guiding system at one mu,
    with the ascending spectrum it was classified from."""

    mu: float
    components: tuple[Component, ...]
    lambdas: tuple[float, ...]

    def inventory(self) -> tuple[str, ...]:
        """Sorted component kinds; the signature used to detect transitions."""
        return tuple(sorted(c.kind for c in self.components))

    def sample_points(self, per_component: int = 16) -> np.ndarray:
        return np.vstack([c.points(per_component) for c in self.components])


def equilibria(mu: float) -> EquilibriumSet:
    """Classify all equilibria at the given mu: the origin, and one component
    for every eigenvalue cluster above the clustering tolerance, whose kind is
    set by the multiplicity and whose radius is the square root of the
    eigenvalue."""
    return _classify(mu, eig_sym(guiding_matrix(mu)))


# the orbit of m = 0, the same at every mu
_ORIGIN = Component(np.zeros((0, 3)), 0.0)


def _classify(mu: float, dec) -> EquilibriumSet:
    """``equilibria(mu)`` from the decomposition of A(mu)."""
    components, start = [_ORIGIN], 0
    for rep, m in dec.clusters:
        if rep > dec.cluster_tol:
            components.append(Component(dec.v[start:start + m], math.sqrt(rep)))
        start += m
    return EquilibriumSet(mu, tuple(components), tuple(dec.lambdas.tolist()))


def integrate(x0, mu: float, dt: float = 1e-2, steps: int = 10000) -> np.ndarray:
    """Classical fixed-step RK4 trajectory; returns (steps + 1, 3) states.

    Raises DimensionError unless x0 holds three values, and DivergenceError
    (with the step index) if the state leaves the finite floating-point
    range.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt:g}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    a = guiding_matrix(mu)
    x = np.asarray(x0, dtype=float)
    if x.shape != (3,):
        raise DimensionError(f"x0 must hold 3 values, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be finite, got {x.tolist()}")
    xb = np.empty(3)

    # the state is three floats, and each elementwise operation is the one
    # numpy would round, in the same order, so the trajectory is bit for bit
    # that of the same RK4 on arrays.  Only A x and x . x go through BLAS,
    # from one buffer: ndarray.dot reaches the same dgemv and ddot calls as
    # ``@`` with less dispatch
    def f(x0, x1, x2):
        xb[0] = x0
        xb[1] = x1
        xb[2] = x2
        s = float(xb.dot(xb))
        a0, a1, a2 = a.dot(xb).tolist()
        return a0 - s * x0, a1 - s * x1, a2 - s * x2

    traj = np.empty((steps + 1, 3))
    traj[0] = x
    x0, x1, x2 = x.tolist()
    h2 = 0.5 * dt
    h6 = dt / 6.0
    # overflow inside a blown-up step is expected and reported as an error
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            p0, p1, p2 = f(x0, x1, x2)
            q0, q1, q2 = f(x0 + h2 * p0, x1 + h2 * p1, x2 + h2 * p2)
            r0, r1, r2 = f(x0 + h2 * q0, x1 + h2 * q1, x2 + h2 * q2)
            s0, s1, s2 = f(x0 + dt * r0, x1 + dt * r1, x2 + dt * r2)
            x0 += h6 * (((p0 + 2.0 * q0) + 2.0 * r0) + s0)
            x1 += h6 * (((p1 + 2.0 * q1) + 2.0 * r1) + s1)
            x2 += h6 * (((p2 + 2.0 * q2) + 2.0 * r2) + s2)
            if not (math.isfinite(x0) and math.isfinite(x1) and math.isfinite(x2)):
                raise DivergenceError(f"trajectory diverged at step {k}", step=k)
            traj[k] = x0, x1, x2
    return traj


def sweep(mu_from: float, mu_to: float, samples: int) -> list[tuple[EquilibriumSet, bool]]:
    """``(equilibria(mu), transition)`` at each mu of a uniform grid, from
    one stacked solve.

    A row is flagged as a transition when its component inventory (the
    multiset of kinds) differs from the previous row's; with any grid that
    brackets them, inventory changes appear at mu = 0, 0.5 and 1.
    """
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    if not (math.isfinite(mu_from) and math.isfinite(mu_to)):
        raise ValueError(f"the mu range must be finite, got {mu_from:g} to {mu_to:g}")
    if not math.isfinite(mu_to - mu_from):
        # np.linspace would overflow on the width and fill the grid with inf
        raise ValueError(f"the mu range is wider than the float range, got {mu_from:g} to {mu_to:g}")
    grid = np.linspace(mu_from, mu_to, samples).tolist()
    matrices, failed = [], None
    for mu in grid:
        try:
            matrices.append(guiding_matrix(mu))
        except ValueError as exc:
            # the rows before it are classified first, so that an error of
            # theirs is raised in its place, as row by row
            failed = exc
            break
    rows, previous = [], None
    for mu, dec in zip(grid, eig_stack(np.reshape(matrices, (-1, 3, 3)))):
        eq = _classify(mu, dec)
        inventory = eq.inventory()
        rows.append((eq, previous is not None and inventory != previous))
        previous = inventory
    if failed is not None:
        raise failed
    return rows
