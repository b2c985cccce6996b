import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from orthosym import fixtures
from orthosym.dynsys import (
    SWAP_23,
    EquilibriumSet,
    SweepRow,
    equilibria,
    guiding_matrix,
    integrate,
    rhs,
    spectrum_formula,
    sweep,
)
from orthosym.errors import DimensionError, DivergenceError
from orthosym.isotropy import commutator_residual, sample_gamma
from orthosym.spectral import eig_sym

from helpers import MASTER_SEED, newton_equilibrium, rk4_on_arrays

SQ2 = math.sqrt(2.0)


def test_guiding_entries_mu0():
    a = np.asarray(guiding_matrix(0.0))
    expected = np.array([[2.0, -SQ2, -SQ2], [-SQ2, 3.0, -1.0], [-SQ2, -1.0, 3.0]])
    assert np.max(np.abs(a - expected)) == 0.0


def test_guiding_entries_mu_neg025():
    a = np.asarray(guiding_matrix(-0.25))
    c = -3.0 / SQ2
    expected = np.array([[2.0, c, c], [c, 3.5, -1.5], [c, -1.5, 3.5]])
    assert np.max(np.abs(a - expected)) <= 1e-12


def test_guiding_mu_half_is_twice_identity():
    a = np.asarray(guiding_matrix(0.5))
    assert np.max(np.abs(a - 2.0 * np.eye(3))) == 0.0
    np.testing.assert_allclose(eig_sym(a).lambdas, [2.0, 2.0, 2.0], atol=1e-12)


@pytest.mark.parametrize(
    "mu,expected",
    [(0.0, (0.0, 4.0)), (-0.25, (-1.0, 5.0)), (0.5, (2.0, 2.0))],
)
def test_spectrum_formula(mu, expected):
    assert spectrum_formula(mu) == expected


def test_swap_equivariance_all_mu():
    for mu in np.linspace(-2.0, 3.0, 31):
        a = np.asarray(guiding_matrix(float(mu)))
        assert np.linalg.norm(SWAP_23 @ a - a @ SWAP_23) <= 1e-14


def test_kernel_vector_at_mu0():
    dec = eig_sym(guiding_matrix(0.0))
    v = dec.v[0]
    ref = fixtures.KERNEL_VECTOR_3
    assert min(np.linalg.norm(v - ref), np.linalg.norm(v + ref)) <= 1e-6
    assert np.linalg.norm(SWAP_23 @ ref - ref) == 0.0


def test_rhs_origin():
    assert np.linalg.norm(rhs([0.0, 0.0, 0.0], 0.3)) == 0.0


def test_rhs_scaled_eigenvector_is_equilibrium():
    dec = eig_sym(guiding_matrix(0.25))
    for lam, vec in zip(dec.lambdas, dec.v):
        if lam > 1e-10:
            x = math.sqrt(lam) * vec
            assert np.linalg.norm(rhs(x, 0.25)) <= 1e-10


def test_rhs_circle_points():
    eq = equilibria(-0.25)
    circle = [c for c in eq.components if c.kind == "circle"][0]
    assert abs(circle.radius - math.sqrt(5.0)) <= 1e-10
    for pt in circle.points(12):
        assert np.linalg.norm(rhs(pt, -0.25)) <= 1e-10
    # Newton refinement from a perturbed circle point falls back onto it
    a = np.asarray(guiding_matrix(-0.25))
    rng = np.random.default_rng(MASTER_SEED + 50)
    start = circle.points(1)[0] + 1e-3 * rng.standard_normal(3)
    refined = newton_equilibrium(a, start)
    assert refined is not None
    assert np.linalg.norm(rhs(refined, -0.25)) <= 1e-10
    assert circle.distance(refined) <= 1e-6


INVENTORIES = {
    -0.25: ("circle", "origin"),
    0.0: ("circle", "origin"),
    0.25: ("circle", "origin", "point-pair"),
    0.5: ("origin", "sphere"),
    0.75: ("circle", "origin", "point-pair"),
    1.0: ("origin", "point-pair"),
    1.25: ("origin", "point-pair"),
}


@pytest.mark.parametrize("mu", sorted(INVENTORIES))
def test_equilibrium_inventories(mu):
    eq = equilibria(mu)
    assert eq.inventory() == INVENTORIES[mu]


def test_radius_law_and_point_residuals():
    for mu in sorted(INVENTORIES):
        eq = equilibria(mu)
        lam = eig_sym(guiding_matrix(mu)).lambdas
        for comp in eq.components:
            if comp.kind == "origin":
                continue
            assert min(abs(comp.radius**2 - l) for l in lam) <= 1e-8
        for pt in eq.sample_points(8):
            assert np.linalg.norm(rhs(pt, mu)) <= 1e-8


def test_expected_radii():
    eq = equilibria(0.25)
    radii = sorted(c.radius for c in eq.components)
    np.testing.assert_allclose(radii, [0.0, 1.0, math.sqrt(3.0)], atol=1e-10)
    eq = equilibria(0.5)
    assert abs(eq.components[1].radius - SQ2) <= 1e-10
    eq = equilibria(1.25)
    pp = [c for c in eq.components if c.kind == "point-pair"][0]
    assert abs(pp.radius - math.sqrt(5.0)) <= 1e-10


def test_symmetry_orbit_of_equilibria():
    mu = -0.25
    eq = equilibria(mu)
    dec = eig_sym(guiding_matrix(mu))
    pts = eq.sample_points(6)
    for seed in range(20):
        g = sample_gamma(dec, seed)
        for pt in pts:
            assert np.linalg.norm(rhs(g @ pt, mu)) <= 1e-8


def distance_to(eq, x):
    return min(c.distance(x) for c in eq.components)


def test_contains():
    eq = equilibria(-0.25)
    circle = [c for c in eq.components if c.kind == "circle"][0]
    on = circle.points(1)[0]
    assert distance_to(eq, on) <= 1e-8
    assert distance_to(eq, [0.0, 0.0, 0.0]) <= 1e-12
    assert distance_to(eq, on * 1.5) > 1e-3


def test_component_types():
    assert equilibria(0.5).components[1].kind == "sphere"
    assert equilibria(1.25).components[1].kind == "point-pair"
    assert equilibria(-0.25).components[1].kind == "circle"
    assert equilibria(0.0).components[0].kind == "origin"


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(-1.0, 2.0),
    x=hnp.arrays(np.float64, 3, elements=st.floats(-10.0, 10.0, allow_subnormal=False)),
    scale=st.floats(1e-9, 1.0),
)
def test_distance_matches_the_per_kind_formulas(mu, x, scale):
    # the subspace formula against the direct distances: ||x|| to the
    # origin, min(||x - p||, ||x + p||) to a pair +/-p, far and near it
    def close(c, y, expected):
        return abs(c.distance(y) - expected) <= 1e-12 * max(1.0, float(np.linalg.norm(y)))

    eq = equilibria(mu)
    assert close(eq.components[0], x, float(np.linalg.norm(x)))
    for c in eq.components:
        if c.kind == "point-pair":
            p = c.points()[0]
            for y in (x, p + scale * x):
                assert close(c, y, min(float(np.linalg.norm(y - p)), float(np.linalg.norm(y + p))))


def test_integrate_origin_fixed():
    traj = integrate([0.0, 0.0, 0.0], 0.3, dt=1e-2, steps=50)
    assert np.max(np.abs(traj)) == 0.0


def test_integrate_reaches_circle():
    traj = integrate([0.1, 0.1, 0.1], -0.25, dt=1e-2, steps=10000)
    eq = equilibria(-0.25)
    assert distance_to(eq, traj[-1]) <= 1e-4
    assert abs(np.linalg.norm(traj[-1]) - math.sqrt(5.0)) <= 1e-4


def test_integrate_converges_to_point_pair():
    traj = integrate([0.3, -0.2, 0.5], 1.25, dt=1e-2, steps=4000)
    terminal = traj[-1]
    assert np.linalg.norm(rhs(terminal, 1.25)) <= 1e-8
    pp = [c for c in equilibria(1.25).components if c.kind == "point-pair"][0]
    assert pp.distance(terminal) <= 1e-6


def test_integrate_tail_residual_monotone():
    steps = 600
    traj = integrate([0.1, 0.1, 0.1], -0.25, dt=1e-2, steps=steps)
    tail = traj[int(0.9 * steps):]
    res = [np.linalg.norm(rhs(x, -0.25)) for x in tail]
    assert all(res[i + 1] <= res[i] * (1.0 + 1e-9) for i in range(len(res) - 1))


def test_integrate_divergence_error():
    with pytest.raises(DivergenceError) as err:
        integrate([10.0, 10.0, 10.0], 0.0, dt=10.0, steps=100)
    assert err.value.step is not None


def test_integrate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integrate([0.1, 0.1, 0.1], 0.0, dt=0.0, steps=10)
    with pytest.raises(ValueError):
        integrate([0.1, 0.1, 0.1], 0.0, dt=1e-2, steps=0)


@pytest.mark.parametrize("x0", [[0.1, 0.1], [[0.1, 0.1, 0.1]], [0.1] * 4, 0.1])
def test_integrate_rejects_a_wrong_length_x0(x0):
    # before: numpy's broadcast ValueError for (2,), a matmul error for
    # (1, 3); raised before the trajectory, of 2^62 steps here, is allocated
    with pytest.raises(DimensionError, match="x0 must hold 3 values"):
        integrate(x0, 0.0, dt=1e-2, steps=2**62)


def test_integrate_holds_little_beyond_its_trajectory():
    # the 240 KB trajectory, and no per-step objects (10,000 tuples of
    # three floats would hold about 1.4 MB)
    integrate([0.1, 0.1, 0.1], -0.25, dt=1e-2, steps=10)
    tracemalloc.start()
    try:
        traj = integrate([0.1, 0.1, 0.1], -0.25, dt=1e-2, steps=10000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.nbytes == 240024
    assert peak < traj.nbytes + 16 * 1024


def _outcome(run):
    try:
        return run().tobytes()
    except DivergenceError as exc:
        return exc.step, str(exc)


@settings(max_examples=60, deadline=None)
@given(
    # three floats, not an array strategy, which drew steps = 1 for more
    # than half of the examples
    x0=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    scale=st.floats(-3.0, 3.0),
    mu=st.floats(-2.0, 3.0),
    dt=st.floats(1e-4, 0.5),
    steps=st.integers(1, 400),
)
@example(x0=(10.0, 10.0, 10.0), scale=0.0, mu=0.0, dt=10.0, steps=100)
def test_integrate_matches_rk4_on_arrays(x0, scale, mu, dt, steps):
    # the same trajectory bit for bit, or the same divergence step and message
    x0 = np.array(x0) * 10.0**scale
    expected = _outcome(lambda: rk4_on_arrays(x0, mu, dt, steps))
    assert _outcome(lambda: integrate(x0, mu, dt=dt, steps=steps)) == expected


def rows_from_equilibria(mu_from, mu_to, samples):
    """The sweep built from one ``equilibria`` call per mu: the reference
    for its rows and for the error it raises first."""
    rows, previous = [], None
    for mu in np.linspace(mu_from, mu_to, samples).tolist():
        eq = equilibria(mu)
        inventory = eq.inventory()
        components = tuple((c.kind, float(c.radius)) for c in eq.components)
        rows.append(SweepRow(mu, eq.lambdas, components, previous is not None and inventory != previous))
        previous = inventory
    return rows


def _grids():
    anywhere = st.tuples(st.floats(-2.0, 3.0), st.floats(-2.0, 3.0), st.integers(2, 60))
    # exact grids k * step, through mu = 0, 0.5 and 1 when they reach them
    through = st.builds(
        lambda k, step, n: (k * step, (k + n - 1) * step, n),
        st.integers(-8, 4),
        st.sampled_from([0.5, 0.25, 0.125]),
        st.integers(2, 30),
    )
    flat = st.builds(lambda mu, n: (mu, mu, n), st.sampled_from([0.0, 0.5, 1.0, -0.3]), st.integers(2, 5))
    return st.one_of(anywhere, through, flat)


def _repr_or_error(run):
    # repr tells -0.0 from 0.0, which == does not
    try:
        return repr(run())
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(grid=_grids())
# an eigenvalue past the float range at the first mu, entries past it at
# the second: the first row's error comes first, as row by row
@example(grid=(5e307, 1e308, 2))
@example(grid=(-0.5, 1.5, 201))
# entries near the float maximum: each grid matrix must be solved at the
# scale eig_sym solves it at
@example(grid=(-4e307, 4e307, 9))
def test_sweep_matches_equilibria_row_by_row(grid):
    expected = _repr_or_error(lambda: rows_from_equilibria(*grid))
    assert _repr_or_error(lambda: sweep(*grid)) == expected


def test_sweep_transitions():
    rows = sweep(-0.5, 1.5, 201)
    assert len(rows) == 201
    assert not rows[0].transition
    intervals = [
        (rows[i - 1].mu, rows[i].mu)
        for i in range(1, len(rows))
        if rows[i].transition
    ]
    for target in (0.0, 0.5, 1.0):
        assert any(lo <= target <= hi + 1e-12 for lo, hi in intervals)
    # every transition sits near one of the three bifurcation values
    for lo, hi in intervals:
        assert min(abs(lo - t) for t in (0.0, 0.5, 1.0)) <= 0.02


def test_sweep_negative_mu_only():
    rows = sweep(-1.0, -0.1, 10)
    for row in rows:
        kinds = tuple(sorted(k for k, _ in row.components))
        assert kinds == ("circle", "origin")
        assert not row.transition


def test_sweep_two_samples():
    rows = sweep(-0.25, 1.25, 2)
    assert len(rows) == 2
    assert rows[0].mu == -0.25 and rows[1].mu == 1.25


def test_sweep_rejects_single_sample():
    with pytest.raises(ValueError):
        sweep(0.0, 1.0, 1)


def test_equilibria_near_zero_eigenvalue_excluded():
    # at mu = 0 the simple eigenvalue is exactly 0: no point pair appears
    eq = equilibria(0.0)
    assert eq.inventory() == ("circle", "origin")
    assert isinstance(eq, EquilibriumSet)
