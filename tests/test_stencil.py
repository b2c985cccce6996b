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
    second_diff,
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


def test_second_diff_quadratic_exact():
    rng = np.random.default_rng(MASTER_SEED + 41)
    m = rng.standard_normal((3, 3))
    m = (m + m.T) / 2
    f = quadratic_field(m)
    x = np.array([0.1, 0.5, -0.3])
    h = np.array([0.02, -0.01, 0.03])
    hess = hessian_fd(f, x)
    gammas = gamma2_elements(eig_sym(hess))
    for g in gammas[:4]:
        got = second_diff(f, x, g, h, hessian=hess)
        gh = g @ h
        assert abs(got - 2.0 * float(gh @ m @ gh)) <= 1e-12


def test_second_diff_identity_is_plain_difference():
    h = np.array([0.2, 0.05, 0.1])
    got = second_diff(TRIG, XBAR, np.eye(3), h, hessian=hessian_fd(TRIG, XBAR))
    expected = TRIG(XBAR + h) - 2.0 * TRIG(XBAR) + TRIG(XBAR - h)
    assert got == expected


def test_second_diff_remainder_is_fourth_order():
    h0 = np.array([0.2, 0.05, 0.1])
    hess = hessian_fd(TRIG, XBAR)
    xs, ys = [], []
    for k in range(4):
        h = h0 / 2.0**k
        rem = second_diff(TRIG, XBAR, np.eye(3), h, hessian=hess) - float(h @ H_REF @ h)
        xs.append(np.log(np.linalg.norm(h)))
        ys.append(np.log(abs(rem)))
    slope = np.polyfit(xs, ys, 1)[0]
    assert 3.7 <= slope <= 4.3


def test_membership_precondition():
    rng = np.random.default_rng(MASTER_SEED + 42)
    rotation = haar_orthogonal(rng, 3)
    hess = hessian_fd(TRIG, XBAR)
    h = np.array([0.1, 0.0, 0.0])
    with pytest.raises(MembershipError):
        second_diff(TRIG, XBAR, rotation, h, hessian=hess)
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
    rng = np.random.default_rng(MASTER_SEED + 43)
    m = rng.standard_normal((3, 3))
    m = (m + m.T) / 2
    f = quadratic_field(m)
    x = np.array([0.4, -0.1, 0.2])
    hess = hessian_fd(f, x)
    gammas = gamma2_elements(eig_sym(hess))
    value = fourth_order_probe(f, x, gammas[1], gammas[2], np.array([0.05, 0.04, -0.03]), hessian=hess)
    assert abs(value) <= 1e-12


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
