import math

import numpy as np
import pytest

from orthosym import fixtures
from orthosym.errors import DegenerateProbeError, EvaluationError, MembershipError
from orthosym.isotropy import gamma2_elements
from orthosym.spectral import eig_sym
from orthosym.stencil import (
    BUILTIN_FIELDS,
    ScalarField,
    fourth_order_probe,
    hessian_fd,
    probe_ladder,
)
from orthosym.verify import matched_reflection

from helpers import MASTER_SEED, haar_orthogonal

TRIG = BUILTIN_FIELDS["trig-quartic"]
XBAR = np.array([1.0, 1.0, 1.0])
H_REF = fixtures.probe_hessian_analytic()


def quadratic_field(m):
    return ScalarField(lambda x: float(x @ m @ x), m.shape[0])


def test_hessian_quadratic_exact():
    rng = np.random.default_rng(MASTER_SEED + 40)
    m = rng.standard_normal((3, 3))
    m = (m + m.T) / 2
    h = np.asarray(hessian_fd(quadratic_field(m), [0.3, -0.2, 0.9]))
    assert np.max(np.abs(h - 2.0 * m)) <= 1e-6


def test_hessian_matches_closed_form():
    h = np.asarray(hessian_fd(TRIG, XBAR))
    assert np.max(np.abs(h - H_REF)) <= 1e-5


def test_hessian_constant_field():
    h = np.asarray(hessian_fd(ScalarField(lambda x: 3.25, 3), XBAR))
    assert np.max(np.abs(h)) == 0.0


def test_hessian_rejects_bad_step():
    with pytest.raises(ValueError):
        hessian_fd(TRIG, XBAR, step=0.0)


def test_nonfinite_evaluation_reports_point():
    bad = ScalarField(lambda x: float("nan"), 3)
    with pytest.raises(EvaluationError) as err:
        hessian_fd(bad, XBAR)
    assert err.value.point is not None


def test_membership_precondition():
    rng = np.random.default_rng(MASTER_SEED + 42)
    rotation = haar_orthogonal(rng, 3)
    hess = hessian_fd(TRIG, XBAR)
    h = np.array([0.1, 0.0, 0.0])
    with pytest.raises(MembershipError):
        fourth_order_probe(TRIG, XBAR, np.eye(3), rotation, h, hessian=hess)
    with pytest.raises(MembershipError):
        probe_ladder(TRIG, XBAR, rotation, np.eye(3), h, hessian=hess)


def test_probe_equal_gammas_cancels_and_warns():
    hess = hessian_fd(TRIG, XBAR)
    g2 = matched_reflection(hess)
    with pytest.warns(UserWarning, match="cancels identically") as record:
        value = fourth_order_probe(
            TRIG, XBAR, g2, g2, fixtures.REFERENCE_PROBE_H, hessian=hess
        )
    assert value == 0.0
    # the warning names the line that called the probe
    assert record[0].filename == __file__


def test_probe_quadratic_field_vanishes():
    # For f = x^T m x the probe is 2 h^T (g1^T m g1 - g2^T m g2) h.  The
    # elements of the exact Hessian 2m commute with m to rounding (1e-15),
    # so the probe is far below 1e-12; those of a finite-difference Hessian
    # commute only to about eps |f| / step^2 = 1e-9.  A 1e-8 turn of g2,
    # still a member at MEMBERSHIP_TOL, reads about 2e-10.
    rng = np.random.default_rng(MASTER_SEED + 43)
    m = rng.standard_normal((3, 3))
    m = (m + m.T) / 2
    f = quadratic_field(m)
    x, h = np.array([0.4, -0.1, 0.2]), np.array([0.05, 0.04, -0.03])
    gammas = gamma2_elements(eig_sym(2.0 * m))
    assert abs(fourth_order_probe(f, x, gammas[1], gammas[2], h, hessian=2.0 * m)) <= 1e-12
    c, s = math.cos(1e-8), math.sin(1e-8)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert abs(fourth_order_probe(f, x, gammas[1], gammas[2] @ turn, h, hessian=2.0 * m)) > 1e-12


def test_probe_warns_on_eigenvector_displacement():
    hess = hessian_fd(TRIG, XBAR)
    g2 = matched_reflection(hess)
    # the reflection axis u satisfies g2 u = -u, so both arms coincide
    u = eig_sym(np.asarray(hess)).v[0]
    with pytest.warns(UserWarning, match="uninformative") as record:
        value = fourth_order_probe(TRIG, XBAR, np.eye(3), g2, 0.1 * u, hessian=hess)
    assert abs(value) <= 1e-12
    assert record[0].filename == __file__
    with pytest.warns(UserWarning, match="uninformative") as record:
        with pytest.raises(DegenerateProbeError):
            probe_ladder(TRIG, XBAR, np.eye(3), g2, 0.1 * u, hessian=hess)
    assert record[0].filename == __file__


def test_probe_value_is_the_four_point_sum():
    hess = hessian_fd(TRIG, XBAR)
    g2 = matched_reflection(hess)
    h = fixtures.REFERENCE_PROBE_H
    value = fourth_order_probe(TRIG, XBAR, np.eye(3), g2, h, hessian=hess)
    assert type(value) is float
    g2h = g2 @ h
    expected = (TRIG(XBAR + h) + TRIG(XBAR - h)) - (TRIG(XBAR + g2h) + TRIG(XBAR - g2h))
    assert value == expected


def test_probe_antisymmetry_exact():
    hess = hessian_fd(TRIG, XBAR)
    g2 = matched_reflection(hess)
    h = fixtures.REFERENCE_PROBE_H
    a = fourth_order_probe(TRIG, XBAR, np.eye(3), g2, h, hessian=hess)
    b = fourth_order_probe(TRIG, XBAR, g2, np.eye(3), h, hessian=hess)
    assert a == -b


def test_probe_ladder_matches_probe_and_fit_per_level():
    hess = hessian_fd(TRIG, XBAR)
    g2 = matched_reflection(hess)
    h = fixtures.REFERENCE_PROBE_H
    values, slope = probe_ladder(TRIG, XBAR, np.eye(3), g2, h, levels=4, hessian=hess)
    assert values == [
        fourth_order_probe(TRIG, XBAR, np.eye(3), g2, h / 2.0**k, hessian=hess)
        for k in range(4)
    ]
    logs_h = [math.log(float(np.linalg.norm(h / 2.0**k))) for k in range(4)]
    logs_s = [math.log(abs(v)) for v in values]
    assert slope == float(np.polyfit(logs_h, logs_s, 1)[0])


def test_probe_ladder_slope_is_the_plain_log_fit_for_ordinary_h():
    # the scaled log norm is taken only where the plain one overflows, so
    # every printed slope keeps its bits
    hess = hessian_fd(TRIG, XBAR)
    g2 = matched_reflection(hess)
    rng = np.random.default_rng(MASTER_SEED + 45)
    for _ in range(40):
        h = rng.uniform(0.02, 0.5, 3) * rng.choice([-1.0, 1.0], 3)
        levels = int(rng.integers(3, 7))
        values, slope = probe_ladder(TRIG, XBAR, np.eye(3), g2, h, levels=levels, hessian=hess)
        logs_h = [math.log(float(np.linalg.norm(h / 2.0**k))) for k in range(levels)]
        logs_s = [math.log(abs(v)) for v in values]
        assert slope == float(np.polyfit(logs_h, logs_s, 1)[0])


def test_probe_ladder_of_a_displacement_whose_norm_overflows():
    # ||h|| near 2.2e200 squares past the float range: the plain norm warned
    # "overflow encountered in dot", an error under -W error::RuntimeWarning
    f = ScalarField(lambda x: math.cos(x[0] + x[1]), 3)
    x = np.array([math.pi / 2.0, 0.0, 0.0])
    g2 = np.diag([-1.0, 1.0, -1.0])
    h = np.array([1e200, 2e200, 0.0])
    hess = hessian_fd(f, x)
    values, slope = probe_ladder(f, x, np.eye(3), g2, h, hessian=hess, levels=3)
    logs_h = [math.log(math.sqrt(5.0)) + math.log(1e200) - k * math.log(2.0) for k in range(3)]
    logs_s = [math.log(abs(v)) for v in values]
    assert slope == pytest.approx(float(np.polyfit(logs_h, logs_s, 1)[0]), rel=1e-9)


def test_quadratic_form_invariant_under_group():
    hess = np.asarray(hessian_fd(TRIG, XBAR))
    dec = eig_sym(hess)
    h = fixtures.REFERENCE_PROBE_H
    for g in gamma2_elements(dec):
        gh = g @ h
        assert abs(float(h @ hess @ h) - float(gh @ hess @ gh)) <= 1e-8


def test_order_fit_sixth_order_construction():
    # field (v.x)^6 at a base point orthogonal to v: the quartic terms of
    # both probe arms vanish, the Hessian is zero (every orthogonal matrix
    # is a symmetry), and the probe decays at sixth order
    f = BUILTIN_FIELDS["plane-sextic"]
    x = np.array([0.0, 1.0, 2.0])
    theta = 0.7
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    _, slope = probe_ladder(
        f, x, np.eye(3), rot, np.array([0.31, 0.12, -0.22]), hessian=hessian_fd(f, x), levels=4
    )
    assert 5.7 <= slope <= 6.3


def test_order_fit_quadratic_is_degenerate():
    rng = np.random.default_rng(MASTER_SEED + 44)
    m = rng.standard_normal((3, 3))
    m = (m + m.T) / 2
    f = quadratic_field(m)
    x = np.array([0.4, -0.1, 0.2])
    hess = 2.0 * m  # exact Hessian: symmetries commute to machine precision
    gammas = gamma2_elements(eig_sym(hess))
    with pytest.raises(DegenerateProbeError):
        probe_ladder(f, x, gammas[1], gammas[2], np.array([0.05, 0.04, -0.03]), hessian=hess)


def test_order_fit_rejects_few_levels():
    with pytest.raises(ValueError):
        probe_ladder(
            TRIG, XBAR, np.eye(3), np.eye(3), np.array([0.1, 0.0, 0.0]), hessian=H_REF, levels=2
        )


def test_scalar_field_dimension_check():
    with pytest.raises(EvaluationError):
        TRIG(np.array([1.0, 2.0]))
