import numpy as np
import pytest

from orthosym.errors import DimensionError, StructureError
from orthosym.graphsym import Graph
from orthosym.isotropy import gamma2_elements, is_member
from orthosym.procrustes import cost, family_sample, solve
from orthosym.spectral import eig_sym, isospectral

from helpers import MASTER_SEED, haar_orthogonal, random_symmetric, set_distance


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
    signs = [e.gamma for e in gamma2_elements(eig_sym(a))]
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
