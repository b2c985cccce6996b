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
from typing import ClassVar, Union

import numpy as np

from .errors import DivergenceError
from .spectral import SymMatrix, eig_sym

#: The coordinate swap commuting with the coefficient matrix for every mu.
SWAP_23 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
SWAP_23.setflags(write=False)


def guiding_matrix(mu: float) -> SymMatrix:
    """The 3x3 coefficient matrix of the guiding system."""
    c = 2.0 * mu - 1.0
    r = math.sqrt(2.0) * c
    return SymMatrix(
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
    return guiding_matrix(mu).entries @ xv - float(xv @ xv) * xv


@dataclass(frozen=True)
class Origin:
    kind: ClassVar[str] = "origin"
    radius: float = 0.0

    def points(self, count: int = 1) -> np.ndarray:
        return np.zeros((1, 3))

    def distance(self, x) -> float:
        return float(np.linalg.norm(x))


@dataclass(frozen=True)
class PointPair:
    """The two equilibria +/- radius * direction on a simple eigendirection."""

    direction: np.ndarray
    radius: float
    kind: ClassVar[str] = "point-pair"

    def __post_init__(self):
        d = np.array(self.direction, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "direction", d)

    def points(self, count: int = 2) -> np.ndarray:
        p = self.radius * self.direction
        return np.array([p, -p])

    def distance(self, x) -> float:
        p = self.radius * self.direction
        return min(float(np.linalg.norm(x - p)), float(np.linalg.norm(x + p)))


def _subspace_distance(x, basis: np.ndarray, radius: float) -> float:
    # distance to the radius-sphere inside span(basis rows); the off-plane
    # part is formed explicitly to avoid cancellation for on-sphere points
    y = basis @ x
    in_plane = float(np.linalg.norm(y))
    off_plane = float(np.linalg.norm(x - basis.T @ y))
    return math.hypot(off_plane, in_plane - radius)


@dataclass(frozen=True)
class Circle:
    """A circle of equilibria inside a two-dimensional eigenspace."""

    basis: np.ndarray  # (2, 3), orthonormal rows spanning the plane
    radius: float
    kind: ClassVar[str] = "circle"

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    def points(self, count: int = 16) -> np.ndarray:
        theta = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        coords = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return self.radius * coords @ self.basis

    def distance(self, x) -> float:
        return _subspace_distance(np.asarray(x, dtype=float), self.basis, self.radius)


@dataclass(frozen=True)
class Sphere:
    """A full sphere of equilibria (threefold eigenvalue)."""

    basis: np.ndarray  # (3, 3), orthonormal rows
    radius: float
    kind: ClassVar[str] = "sphere"

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    def points(self, count: int = 32) -> np.ndarray:
        # deterministic golden-angle spiral
        k = np.arange(count, dtype=float)
        z = 1.0 - 2.0 * (k + 0.5) / count
        phi = k * math.pi * (3.0 - math.sqrt(5.0))
        rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        coords = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
        return self.radius * coords @ self.basis

    def distance(self, x) -> float:
        return _subspace_distance(np.asarray(x, dtype=float), self.basis, self.radius)


Component = Union[Origin, PointPair, Circle, Sphere]


@dataclass(frozen=True)
class EquilibriumSet:
    """The classified equilibrium manifold of the guiding system at one mu,
    with the ascending spectrum it was classified from."""

    mu: float
    components: tuple[Component, ...]
    lambdas: tuple[float, ...]

    def kinds(self) -> tuple[str, ...]:
        return tuple(c.kind for c in self.components)

    def inventory(self) -> tuple[str, ...]:
        """Sorted component kinds; the signature used to detect transitions."""
        return tuple(sorted(self.kinds()))

    def contains(self, x, tol: float) -> bool:
        return any(c.distance(x) <= tol for c in self.components)

    def sample_points(self, per_component: int = 16) -> np.ndarray:
        return np.vstack([c.points(per_component) for c in self.components])


def equilibria(mu: float, pos_tol: float | None = None) -> EquilibriumSet:
    """Classify all equilibria at the given mu.

    The origin is always present; every eigenvalue cluster above ``pos_tol``
    (default: the clustering tolerance) contributes one component whose kind
    is set by the multiplicity and whose radius is the square root of the
    eigenvalue.
    """
    dec = eig_sym(guiding_matrix(mu))
    cut = dec.cluster_tol if pos_tol is None else pos_tol
    components: list[Component] = [Origin()]
    for (rep, mult), sl in zip(dec.clusters, dec.cluster_slices()):
        if rep <= cut:
            continue
        radius = math.sqrt(rep)
        basis = dec.v[sl, :]
        if mult == 1:
            components.append(PointPair(direction=basis[0], radius=radius))
        elif mult == 2:
            components.append(Circle(basis=basis, radius=radius))
        else:
            components.append(Sphere(basis=basis, radius=radius))
    return EquilibriumSet(
        mu=mu,
        components=tuple(components),
        lambdas=tuple(dec.lambdas.tolist()),
    )


def integrate(x0, mu: float, dt: float = 1e-2, steps: int = 10000) -> np.ndarray:
    """Classical fixed-step RK4 trajectory; returns (steps + 1, 3) states.

    Raises DivergenceError (with the step index) if the state leaves the
    finite floating-point range.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt:g}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    a = guiding_matrix(mu).entries

    def f(x):
        return a @ x - (x @ x) * x

    traj = np.empty((steps + 1, 3))
    x = np.asarray(x0, dtype=float).copy()
    traj[0] = x
    # overflow inside a blown-up step is expected and reported as an error
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            k1 = f(x)
            k2 = f(x + 0.5 * dt * k1)
            k3 = f(x + 0.5 * dt * k2)
            k4 = f(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                raise DivergenceError(
                    f"trajectory diverged at step {k + 1}", step=k + 1
                )
            traj[k + 1] = x
    return traj


@dataclass(frozen=True)
class SweepRow:
    """One bifurcation-table row: parameter, spectrum, component summary,
    and whether the component inventory changed from the previous row."""

    mu: float
    lambdas: tuple[float, float, float]
    components: tuple[tuple[str, float], ...]  # (kind, radius) pairs
    transition: bool


def sweep(mu_from: float, mu_to: float, samples: int) -> list[SweepRow]:
    """Equilibrium inventories over a uniform mu grid.

    A row is flagged as a transition when its component inventory (the
    multiset of kinds) differs from the previous row's; with any grid that
    brackets them, inventory changes appear at mu = 0, 0.5 and 1.
    """
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    rows: list[SweepRow] = []
    previous = None
    for mu in np.linspace(mu_from, mu_to, samples):
        eq = equilibria(float(mu))
        inventory = eq.inventory()
        rows.append(
            SweepRow(
                mu=float(mu),
                lambdas=eq.lambdas,
                components=tuple(
                    (c.kind, float(c.radius)) for c in eq.components
                ),
                transition=previous is not None and inventory != previous,
            )
        )
        previous = inventory
    return rows
