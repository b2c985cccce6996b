import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthosym.errors import DimensionError, StructureError
from orthosym.graphsym import Graph
from orthosym.isotropy import gamma2_elements, is_member
from orthosym.procrustes import cost, family_sample, solve
from orthosym.spectral import eig_sym, isospectral

from helpers import MASTER_SEED, haar_orthogonal, planted_matrix, random_symmetric, set_distance


def similar_pair(seed, n=6):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, n)
    q = haar_orthogonal(rng, n)
    return a, q @ a @ q.T


def test_solve_identical_diagonal():
    a = np.diag([1.0, 2.0, 3.0])
    sol = solve(a, a)
    assert sol.cost <= 1e-12
    assert sol.lower_bound == 0.0
    # P is determined only up to a symmetry of A; membership is the check
    assert is_member(eig_sym(a), sol.p)


def test_solve_relabeling():
    sol = solve(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), order="ascending")
    assert sol.cost <= 1e-12
    assert abs(abs(sol.p[0, 1]) - 1.0) <= 1e-12 and abs(abs(sol.p[1, 0]) - 1.0) <= 1e-12


def test_solve_orthogonally_similar_pair():
    a, b = similar_pair(MASTER_SEED)
    sol = solve(a, b)
    assert sol.cost <= 1e-8
    assert sol.lower_bound <= 1e-8
    assert np.linalg.norm(sol.p @ sol.p.T - np.eye(6)) <= 1e-9 * 6


def test_solve_rejects_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve(np.eye(2), np.eye(3))


def test_solve_reports_a_solve_error_before_a_dimension_mismatch():
    # each input is checked and solved by eig_sym before the sizes are
    # compared, so A's overflowing eigenvalue is what is reported
    with pytest.raises(ValueError, match="^an eigenvalue overflows the float range$"):
        solve(np.full((2, 2), 1.7e308), np.eye(3))


def test_solve_rejects_asymmetric():
    from orthosym.errors import SymmetryError

    with pytest.raises(SymmetryError):
        solve(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


def test_cost_trivials():
    assert cost(np.eye(2), np.eye(2), np.eye(2)) == 0.0
    c = cost(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2))
    assert abs(c - np.sqrt(2.0)) <= 1e-12


def test_cost_dimension_mismatch():
    with pytest.raises(DimensionError):
        cost(np.eye(2), np.eye(2), np.eye(3))


def test_family_same_matrix_translates_into_group():
    rng = np.random.default_rng(MASTER_SEED + 20)
    a = random_symmetric(rng, 5)
    dec = eig_sym(a)
    for sol in family_sample(a, a, seed=5, count=10):
        assert sol.cost <= 1e-7 * max(1.0, 2 * np.linalg.norm(a))
        assert is_member(dec, sol.p)


def test_family_simple_spectrum_reduces_to_sign_group():
    rng = np.random.default_rng(MASTER_SEED + 21)
    q = haar_orthogonal(rng, 3)
    a = q @ np.diag([1.0, 3.0, 7.0]) @ q.T
    signs = gamma2_elements(eig_sym(a))
    for sol in family_sample(a, a, seed=6, count=40):
        assert set_distance(sol.p, signs) <= 1e-8


def test_family_costs_all_optimal():
    a, b = similar_pair(MASTER_SEED + 22)
    sols = family_sample(a, b, seed=7, count=25)
    costs = [s.cost for s in sols]
    assert max(costs) - min(costs) <= 1e-7
    scale = max(1.0, np.linalg.norm(a) + np.linalg.norm(b))
    for s in sols:
        assert abs(s.cost - s.lower_bound) <= 1e-7 * scale


def test_family_rejects_multiplicity_mismatch():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([1.0, 1.0, 3.0])
    with pytest.raises(StructureError) as err:
        family_sample(a, b, seed=0, count=1)
    assert err.value.details == {"m_a": (1, 1, 1), "m_b": (2, 1)}


def test_random_orthogonal_never_beats_family():
    a, b = similar_pair(MASTER_SEED + 23)
    family_cost = max(s.cost for s in family_sample(a, b, seed=8, count=5))
    rng = np.random.default_rng(MASTER_SEED + 24)
    sampled = min(cost(a, b, haar_orthogonal(rng, 6)) for _ in range(100))
    assert sampled >= family_cost - 1e-7


def test_order_consistency():
    a, b = similar_pair(MASTER_SEED + 25)
    for order in ("ascending", "descending"):
        sol = solve(a, b, order=order)
        scale = max(1.0, np.linalg.norm(a) + np.linalg.norm(b))
        assert abs(sol.cost - sol.lower_bound) <= 1e-7 * scale
    # spectrum symmetric under negation: both orders give equal bounds
    rng = np.random.default_rng(MASTER_SEED + 26)
    q = haar_orthogonal(rng, 3)
    sym_spec = q @ np.diag([-2.0, 0.0, 2.0]) @ q.T
    q2 = haar_orthogonal(rng, 3)
    other = q2 @ np.diag([-1.0, 0.0, 1.0]) @ q2.T
    up = solve(sym_spec, other, order="ascending")
    down = solve(sym_spec, other, order="descending")
    assert abs(up.lower_bound - down.lower_bound) <= 1e-9


@pytest.mark.parametrize("n", [3, 6, 16])
def test_both_orders_give_one_solution_up_to_rounding(n):
    # reversing both spectra pairs the same eigenvalues, so the descending
    # order is the ascending solution, up to the rounding of the product
    # and the sums: the order does not choose between minimum and maximum
    eps = np.finfo(float).eps
    for seed in range(5):
        rng = np.random.default_rng(MASTER_SEED + 40 + seed)
        a, b = random_symmetric(rng, n), random_symmetric(rng, n)
        up, down = solve(a, b), solve(a, b, order="descending")
        assert np.abs(up.p - down.p).max() <= 4 * eps
        assert abs(up.cost - down.cost) <= 4 * eps * (np.linalg.norm(a) + np.linalg.norm(b))
        assert abs(up.lower_bound - down.lower_bound) <= 4 * math.ulp(up.lower_bound)


def test_cost_invariant_under_joint_conjugation():
    rng = np.random.default_rng(MASTER_SEED + 27)
    a = random_symmetric(rng, 5)
    b = random_symmetric(rng, 5)
    p = haar_orthogonal(rng, 5)
    q = haar_orthogonal(rng, 5)
    c1 = cost(a, b, p)
    c2 = cost(q @ a @ q.T, q @ b @ q.T, q @ p @ q.T)
    assert abs(c1 - c2) <= 1e-9 * max(1.0, c1)


def test_solve_rejects_bad_order():
    with pytest.raises(ValueError):
        solve(np.eye(2), np.eye(2), order="sideways")


def test_isospectral_similar_pair():
    a, b = similar_pair(MASTER_SEED + 28)
    assert isospectral(a, b, tol=1e-8)


def test_isospectral_distinct():
    assert not isospectral(np.diag([1.0, 2.0]), np.diag([1.0, 3.0]), tol=1e-6)


def test_isospectral_path_vs_star():
    path = Graph.from_edges([(0, 1), (1, 2)]).adjacency.astype(float)
    star = Graph.from_edges([(0, 1), (0, 2)]).adjacency.astype(float)
    assert isospectral(path, star, tol=1e-8)
    # cross-check both spectra against the cubic lambda^3 - 2 lambda = 0,
    # solved by an independent method (companion-matrix roots)
    roots = np.sort(np.roots([1.0, 0.0, -2.0, 0.0]).real)
    for adj in (path, star):
        np.testing.assert_allclose(eig_sym(adj).lambdas, roots, atol=1e-8)


def test_isospectral_of_spectra_near_the_float_maximum():
    # the difference of the two spectra is past the float range; it is
    # taken of both divided by one power of two, without a warning
    assert not isospectral([[1.7e308]], [[-1.7e308]], 1.0)
    assert isospectral([[1.7e308]], [[1.7e308]], 0.0)


def scaling_pairs():
    """(A, B, isospectral within 2^-26?) for planted spectra with repeated
    eigenvalues and for the cospectral graphs K(1,4) and C4 + K1."""
    rng = np.random.default_rng(MASTER_SEED + 92)
    reps = [-2.0, 1.0, 1.0, 3.0, 3.0, 3.0]
    a, _ = planted_matrix(rng, reps)
    b, _ = planted_matrix(rng, reps)
    c, _ = planted_matrix(rng, reps[:-1] + [3.5])
    star = Graph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4)]).adjacency.astype(float)
    square = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)], n=5).adjacency.astype(float)
    path = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)]).adjacency.astype(float)
    return [(a, b, True), (a, c, False), (star, square, True), (star, path, False)]


SCALING_PAIRS = scaling_pairs()
# a planted matrix and its exact spectrum, which the computed one misses
# by a few ulps
PLANTED = planted_matrix(np.random.default_rng(MASTER_SEED + 94), [-2.0, 1.0, 1.0, 3.0, 3.0, 3.0])


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-1000, 1000))
@example(k=-1000)
@example(k=1000)
def test_isospectral_commutes_with_a_power_of_two(k):
    # isospectral(2^k A, 2^k B, 2^k tol) == isospectral(A, B, tol).  Each
    # tol is a multiple of a power of two, so 2^k tol is exact even where
    # it is subnormal
    tol = 2.0**-26
    for a, b, same in SCALING_PAIRS:
        assert isospectral(a, b, tol) is same
        assert isospectral(np.ldexp(a, k), np.ldexp(b, k), math.ldexp(tol, k)) is same
    # tolerances of j 2^-56 straddle the rounding error of the computed
    # spectrum, so the answer flips within the grid; it flips at the same
    # j for every k only if each spectrum is computed at one scale
    a, lam = PLANTED
    b = np.diag(lam)
    grid = [j * 2.0**-56 for j in range(1, 257)]
    at_one = [isospectral(a, b, t) for t in grid]
    assert any(at_one) and not all(at_one)
    assert [isospectral(np.ldexp(a, k), np.ldexp(b, k), math.ldexp(t, k)) for t in grid] == at_one


def test_isospectral_rejects_a_non_finite_or_negative_tol():
    # a NaN tol would reject every pair, and an infinite one would accept
    # eye(2) against 5 * eye(2)
    for tol in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="tol must be finite"):
            isospectral(np.eye(2), 5.0 * np.eye(2), tol=tol)


def test_cost_and_lower_bound_of_entries_near_1e300():
    # ||PA - BP||_F and ||D_A - D_B||_F are about 2.236e300, but their
    # squares overflow; tier-1 turns numpy's overflow warning into an error
    a, b = np.diag([1e300, 2e300]), np.diag([1.0, 2.0])
    sol = solve(a, b)
    assert sol.cost == pytest.approx(math.sqrt(5.0) * 1e300, rel=1e-12)
    assert sol.lower_bound == pytest.approx(math.sqrt(5.0) * 1e300, rel=1e-12)
    assert cost(a, b, np.eye(2)) == sol.cost
    big = np.diag([1e308, 1.5e308])
    assert cost(big, -big, np.eye(2)) == math.inf
    # P is scaled on its own: its products with A and B overflowed
    assert cost(np.eye(2), 2.0 * np.eye(2), 1e308 * np.eye(2)) == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-12)
    for s in family_sample(a, b, seed=MASTER_SEED, count=3):
        assert s.lower_bound == sol.lower_bound
        assert s.cost == pytest.approx(sol.cost, rel=1e-12)


@pytest.mark.parametrize("k", [-1070, -30, 0, 30, 900])
def test_cost_scales_with_a_power_of_two(k):
    rng = np.random.default_rng(MASTER_SEED + 91)
    a, b = random_symmetric(rng, 5), random_symmetric(rng, 5)
    p = haar_orthogonal(rng, 5)
    assert cost(np.ldexp(a, k), np.ldexp(b, k), p) == math.ldexp(cost(a, b, p), k)
