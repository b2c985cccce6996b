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
from .spectral import SpectralDecomposition, _scaled, _unscaled, as_sym, eig_sym

MEMBERSHIP_TOL = 1e-6  # looser than the group default: the FD Hessian itself
                       # carries noise of order 1e-5 .. 1e-6
PROBE_FLOOR = 1e-14
EIGENVECTOR_TOL = 1e-8


@dataclass(frozen=True)
class ScalarField:
    """A pure scalar map on R^n.  Evaluation must be deterministic; the
    wrapper validates finiteness and reports the offending point.  This
    module evaluates it under one ``np.errstate`` per call, not per point
    (2.5 us each), so there overflow raises EvaluationError, not a warning."""

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


def default_step(x) -> float:
    shift, xs, one = _scaled(x, 1.0)
    return _unscaled(1e-4 * max(one, float(np.linalg.norm(xs))), shift)


def hessian_fd(f: ScalarField, x, step: float | None = None) -> np.ndarray:
    """Central-difference Hessian, symmetrized as (H + H^T)/2, as ``as_sym`` returns it."""
    pt = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(pt)):
        raise ValueError(f"x must be finite, got {pt.tolist()}")
    s = default_step(pt) if step is None else float(step)
    # the difference quotient divides by 4 s^2, which must not underflow
    if not (math.isfinite(s) and s > 0 and s * s > 0):
        raise ValueError(f"step must be positive and finite, with a nonzero square, got {s:g}")
    n = pt.size
    h = np.zeros((n, n))
    eye = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            for j in range(n):
                ei, ej = s * eye[i], s * eye[j]
                h[i, j] = (
                    f(pt + ei + ej) - f(pt + ei - ej) - f(pt - ei + ej) + f(pt - ei - ej)
                ) / (4.0 * s * s)
        return as_sym((h + h.T) / 2.0)


def hessian_decomposition(
    f: ScalarField, x, step: float | None = None
) -> SpectralDecomposition:
    return eig_sym(hessian_fd(f, x, step))


def _require_member(hessian, gamma, label: str) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    if not is_member(hessian, g, tol=MEMBERSHIP_TOL):
        raise MembershipError(
            f"{label} is not a symmetry of the Hessian at tolerance "
            f"{MEMBERSHIP_TOL:g}"
        )
    return g


def _probe_value(f: ScalarField, pt, g1, g2, h) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        g1h = g1 @ h
        g2h = g2 @ h
        # grouped so that swapping g1 and g2 negates the result exactly
        t1 = f(pt + g1h) + f(pt - g1h)
        t2 = f(pt + g2h) + f(pt - g2h)
    return t1 - t2


def _checked_symmetries(hessian, g1, g2, h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g1, g2 and h as arrays, once both symmetries have passed the Hessian
    membership test.  Warns, at the caller of the public probe function,
    when the choice makes every probe value uninformative."""
    g1 = _require_member(hessian, g1, "gamma1")
    g2 = _require_member(hessian, g2, "gamma2")
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError(f"h must be finite, got {h.tolist()}")
    if np.allclose(g1, g2, atol=1e-12) or np.allclose(g1, -g2, atol=1e-12):
        warnings.warn(
            "gamma1 = +/-gamma2: the probe cancels identically and carries "
            "no fourth-order information",
            stacklevel=3,
        )
        return g1, g2, h
    # the two arms coincide whenever gamma1 h = +/- gamma2 h, e.g. when h is
    # a shared eigenvector of both symmetries; the value then cancels.  The
    # test is homogeneous in h, so it is made on h / 2^s
    _, hs = _scaled(h)
    hn = float(np.linalg.norm(hs))
    g1h, g2h = g1 @ hs, g2 @ hs
    if hn > 0.0 and (
        float(np.linalg.norm(g1h - g2h)) <= EIGENVECTOR_TOL * hn
        or float(np.linalg.norm(g1h + g2h)) <= EIGENVECTOR_TOL * hn
    ):
        warnings.warn(
            "h is mapped to the same points by both symmetries (it is an "
            "eigenvector of gamma2^T gamma1); the probe is uninformative "
            "for this displacement",
            stacklevel=3,
        )
    return g1, g2, h


def fourth_order_probe(f: ScalarField, x, g1, g2, h, hessian) -> float:
    """The four-point probe value s, which is O(||h||^4); both symmetries
    must pass the membership test for ``hessian``.  Warns (but proceeds)
    when g1 = +/-g2 or when h is an eigenvector of g2^T g1, since the value
    is then uninformative.
    """
    g1, g2, h = _checked_symmetries(hessian, g1, g2, h)
    return _probe_value(f, np.asarray(x, dtype=float), g1, g2, h)


def probe_ladder(
    f: ScalarField, x, g1, g2, h, hessian, levels: int = 5
) -> tuple[list[float], float]:
    """Probe values at h, h/2, ..., h/2^(levels-1), and the least-squares
    slope of log|s| against log||h|| over them.  Generic smooth fields with
    a nonvanishing quartic difference give a slope near 4.  Tests and warns
    like ``fourth_order_probe``, once for all levels."""
    if levels < 3:
        raise ValueError(f"levels must be at least 3, got {levels}")
    g1, g2, h = _checked_symmetries(hessian, g1, g2, h)
    pt = np.asarray(x, dtype=float)
    values, logs_h, logs_s = [], [], []
    for k in range(levels):
        hk = h / 2.0**k
        s = _probe_value(f, pt, g1, g2, hk)
        if abs(s) < PROBE_FLOOR:
            raise DegenerateProbeError(
                f"probe value {s:.2e} at level {k} is below the noise floor; "
                f"start from a larger displacement"
            )
        values.append(s)
        logs_h.append(math.log(float(np.linalg.norm(hk))))
        logs_s.append(math.log(abs(s)))
    return values, float(np.polyfit(logs_h, logs_s, 1)[0])


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
