"""Symmetry-based Taylor probes.

The Hessian of a smooth scalar field is symmetric, so it has an orthogonal
symmetry group; applying two of its elements gamma_1, gamma_2 to the same
displacement h and combining four point evaluations,

    s = f(x + g1 h) + f(x - g1 h) - f(x + g2 h) - f(x - g2 h),

the constant, gradient, quadratic and cubic terms all cancel, leaving twice
the difference of the quartic Taylor terms: s = O(||h||^4).  The probe is a
cheap four-point window onto fourth-order derivative information.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateProbeError, EvaluationError, MembershipError
from .isotropy import is_member
from .spectral import SpectralDecomposition, SymMatrix, as_matrix, as_sym, eig_sym

MEMBERSHIP_TOL = 1e-6  # looser than the group default: the FD Hessian itself
                       # carries noise of order 1e-5 .. 1e-6
PROBE_FLOOR = 1e-14
EIGENVECTOR_TOL = 1e-8


@dataclass(frozen=True)
class ScalarField:
    """A pure scalar map on R^n.  Evaluation must be deterministic; the
    wrapper validates finiteness and reports the offending point."""

    fn: Callable[[np.ndarray], float]
    dim: int

    def __call__(self, x) -> float:
        pt = np.asarray(x, dtype=float)
        if pt.shape != (self.dim,):
            raise EvaluationError(
                f"point of shape {pt.shape} does not match field dimension "
                f"{self.dim}",
                point=pt,
            )
        val = float(self.fn(pt))
        if not math.isfinite(val):
            raise EvaluationError(f"non-finite value {val} at {pt.tolist()}", point=pt)
        return val


@dataclass(frozen=True)
class StencilProbe:
    """A four-point probe: base point, the two symmetries, the displacement,
    and the combined value s (which is O(||h||^4))."""

    base_point: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    h: np.ndarray
    value: float


def default_step(x) -> float:
    return 1e-4 * max(1.0, float(np.linalg.norm(x)))


def hessian_fd(f: ScalarField, x, step: float | None = None) -> SymMatrix:
    """Central-difference Hessian, symmetrized as (H + H^T)/2."""
    pt = np.asarray(x, dtype=float)
    s = default_step(pt) if step is None else float(step)
    if s <= 0:
        raise ValueError(f"step must be positive, got {s:g}")
    n = pt.size
    h = np.zeros((n, n))
    eye = np.eye(n)
    for i in range(n):
        for j in range(n):
            ei, ej = s * eye[i], s * eye[j]
            h[i, j] = (
                f(pt + ei + ej) - f(pt + ei - ej) - f(pt - ei + ej) + f(pt - ei - ej)
            ) / (4.0 * s * s)
    return SymMatrix((h + h.T) / 2.0)


def hessian_decomposition(
    f: ScalarField, x, step: float | None = None
) -> SpectralDecomposition:
    return eig_sym(hessian_fd(f, x, step))


def _require_member(hess: SymMatrix, gamma, label: str) -> np.ndarray:
    g = as_matrix(gamma)
    if not is_member(hess, g, tol=MEMBERSHIP_TOL):
        raise MembershipError(
            f"{label} is not a symmetry of the Hessian at tolerance "
            f"{MEMBERSHIP_TOL:g}"
        )
    return g


def second_diff(f: ScalarField, x, gamma, h, hessian=None) -> float:
    """f(x + gamma h) - 2 f(x) + f(x - gamma h).

    For gamma in the Hessian's symmetry group this equals h^T H h plus a
    fourth-order remainder, whatever gamma is chosen: the quadratic term is
    invariant under the group action.
    """
    pt = np.asarray(x, dtype=float)
    hess = hessian_fd(f, pt) if hessian is None else as_sym(hessian)
    g = _require_member(hess, gamma, "gamma")
    gh = g @ np.asarray(h, dtype=float)
    return f(pt + gh) - 2.0 * f(pt) + f(pt - gh)


def _probe_value(f: ScalarField, pt, g1, g2, h) -> float:
    g1h = g1 @ h
    g2h = g2 @ h
    # grouped so that swapping g1 and g2 negates the result exactly
    t1 = f(pt + g1h) + f(pt - g1h)
    t2 = f(pt + g2h) + f(pt - g2h)
    return t1 - t2


def _warn_degenerate_choice(g1, g2, h):
    if np.allclose(g1, g2, atol=1e-12) or np.allclose(g1, -g2, atol=1e-12):
        warnings.warn(
            "gamma1 = +/-gamma2: the probe cancels identically and carries "
            "no fourth-order information",
            stacklevel=3,
        )
        return
    hn = float(np.linalg.norm(h))
    if hn == 0.0:
        return
    # the two arms coincide whenever gamma1 h = +/- gamma2 h, e.g. when h is
    # a shared eigenvector of both symmetries; the value then cancels
    g1h, g2h = g1 @ h, g2 @ h
    if (
        float(np.linalg.norm(g1h - g2h)) <= EIGENVECTOR_TOL * hn
        or float(np.linalg.norm(g1h + g2h)) <= EIGENVECTOR_TOL * hn
    ):
        warnings.warn(
            "h is mapped to the same points by both symmetries (it is an "
            "eigenvector of gamma2^T gamma1); the probe is uninformative "
            "for this displacement",
            stacklevel=3,
        )


def fourth_order_probe(f: ScalarField, x, g1, g2, h, hessian=None) -> StencilProbe:
    """Evaluate the four-point probe; both symmetries must pass the Hessian
    membership test.  Warns (but proceeds) when g1 = +/-g2 or when h is an
    eigenvector of either symmetry, since the value is then uninformative.
    """
    pt = np.asarray(x, dtype=float)
    hess = hessian_fd(f, pt) if hessian is None else as_sym(hessian)
    m1 = _require_member(hess, g1, "gamma1")
    m2 = _require_member(hess, g2, "gamma2")
    hv = np.asarray(h, dtype=float)
    _warn_degenerate_choice(m1, m2, hv)
    return StencilProbe(
        base_point=pt,
        gamma1=m1,
        gamma2=m2,
        h=hv,
        value=_probe_value(f, pt, m1, m2, hv),
    )


def probe_ladder(
    f: ScalarField, x, g1, g2, h, levels: int = 5, hessian=None
) -> tuple[list[float], float]:
    """Probe values at h, h/2, ..., h/2^(levels-1), and the least-squares
    slope of log|s| against log||h|| over them.  Both symmetries are tested
    for membership once; like ``fourth_order_probe`` this warns when the
    choice of g1, g2 and h makes every value uninformative."""
    if levels < 3:
        raise ValueError(f"levels must be at least 3, got {levels}")
    pt = np.asarray(x, dtype=float)
    hess = hessian_fd(f, pt) if hessian is None else as_sym(hessian)
    m1 = _require_member(hess, g1, "gamma1")
    m2 = _require_member(hess, g2, "gamma2")
    hv = np.asarray(h, dtype=float)
    _warn_degenerate_choice(m1, m2, hv)
    values, logs_h, logs_s = [], [], []
    for k in range(levels):
        hk = hv / 2.0**k
        s = _probe_value(f, pt, m1, m2, hk)
        if abs(s) < PROBE_FLOOR:
            raise DegenerateProbeError(
                f"probe value {s:.2e} at level {k} is below the noise floor; "
                f"start from a larger displacement"
            )
        values.append(s)
        logs_h.append(math.log(float(np.linalg.norm(hk))))
        logs_s.append(math.log(abs(s)))
    return values, float(np.polyfit(logs_h, logs_s, 1)[0])


def order_fit(f: ScalarField, x, g1, g2, h, levels: int = 5, hessian=None) -> float:
    """The slope of ``probe_ladder``.  Generic smooth fields with a
    nonvanishing quartic difference give a slope near 4."""
    return probe_ladder(f, x, g1, g2, h, levels=levels, hessian=hessian)[1]


def _field_quadratic(x: np.ndarray) -> float:
    m = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    return float(x @ m @ x)


def _field_trig_quartic(x: np.ndarray) -> float:
    x1, x2, x3 = x
    return x1 * x2 * x3**2 + x1**2 - 3.0 * x2**2 + x2 * math.sin(x1) - x2**2 * x3**2


def _field_plane_sextic(x: np.ndarray) -> float:
    return float(x[0] ** 6)


#: Named test fields for the command-line interface.
BUILTIN_FIELDS: dict[str, ScalarField] = {
    "quadratic": ScalarField(_field_quadratic, 3),
    "trig-quartic": ScalarField(_field_trig_quartic, 3),
    "plane-sextic": ScalarField(_field_plane_sextic, 3),
}
