import numpy as np
import pytest

from orthosym import fixtures, graphsym
from orthosym.errors import LimitExceededError, SizeCapError, StructureError
from orthosym.graphsym import (
    Graph,
    Permutation,
    adjacency_decomposition,
    automorphisms,
    find_isomorphism,
    hidden_symmetry_sample,
    is_permutation,
)
from orthosym.isotropy import commutator_residual, is_member

from helpers import MASTER_SEED, brute_force_isomorphisms

PATH3 = Graph.from_edges([(0, 1), (1, 2)])
K4 = Graph.from_edges([(i, j) for i in range(4) for j in range(i + 1, 4)])


def random_graph(rng, n, p=0.4):
    a = (rng.random((n, n)) < p).astype(int)
    a = np.triu(a, 1)
    return Graph(a + a.T)


def relabel(graph, perm):
    p = np.array(perm)
    return Graph(graph.adjacency[np.ix_(p, p)])


def test_graph_validation():
    with pytest.raises(StructureError):
        Graph(np.array([[1, 0], [0, 0]]))  # self-loop
    with pytest.raises(StructureError):
        Graph(np.array([[0, 2], [2, 0]]))  # non-binary
    with pytest.raises(StructureError):
        Graph(np.array([[0, 1], [0, 0]]))  # asymmetric
    with pytest.raises(StructureError):
        Graph.from_edges([(0, 0)])


def test_graph_from_edges():
    g = Graph.from_edges([(0, 1), (1, 2)], n=4)
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.degrees().tolist() == [1, 2, 1, 0]


def test_permutation_ops():
    p = Permutation((1, 2, 0))
    assert p.inverse().mapping == (2, 0, 1)
    assert p.compose(p.inverse()).mapping == (0, 1, 2)
    mat = p.to_matrix()
    assert mat[1, 0] == 1 and mat[2, 1] == 1 and mat[0, 2] == 1
    with pytest.raises(StructureError):
        Permutation((0, 0, 1))


def test_path_graph_automorphisms():
    auts = automorphisms(PATH3)
    assert [a.mapping for a in auts] == [(0, 1, 2), (2, 1, 0)]


def test_complete_graph_automorphisms():
    auts = automorphisms(K4)
    assert len(auts) == 24


def test_automorphism_limit():
    with pytest.raises(LimitExceededError):
        automorphisms(K4, limit=10)


def test_backtracking_agrees_with_brute_force():
    rng = np.random.default_rng(MASTER_SEED + 30)
    graphs = [PATH3, K4, fixtures.asymmetric_graph()]
    graphs += [random_graph(rng, int(rng.integers(4, 8))) for _ in range(6)]
    for g in graphs:
        if g.n > 8:
            continue
        expected = brute_force_isomorphisms(g.adjacency, g.adjacency)
        got = [a.mapping for a in automorphisms(g)]
        assert got == expected


def test_automorphism_group_axioms():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])  # 4-cycle
    auts = automorphisms(g)
    assert len(auts) == 8
    mappings = {a.mapping for a in auts}
    for a in auts:
        assert a.inverse().mapping in mappings
        for b in auts:
            assert a.compose(b).mapping in mappings


def test_automorphisms_lie_in_orthogonal_group():
    for g in (PATH3, K4, fixtures.asymmetric_graph()):
        dec = adjacency_decomposition(g)
        for a in automorphisms(g):
            assert is_member(dec, a.to_matrix().astype(float), tol=1e-8)


def test_asymmetric_graph_spectrum():
    dec = adjacency_decomposition(fixtures.asymmetric_graph())
    assert dec.multiplicities == (1, 1, 1, 2, 1, 1, 1)
    reps = np.array([rep for rep, _ in dec.clusters])
    assert np.max(np.abs(reps - np.array(fixtures.GRAPH_EIGENVALUES_2DP))) < 0.01


def test_hidden_symmetry_on_asymmetric_graph():
    g = fixtures.asymmetric_graph()
    gamma = hidden_symmetry_sample(g, seed=MASTER_SEED)
    assert gamma.shape == (g.n, g.n) and not gamma.flags.writeable
    assert commutator_residual(g.adjacency.astype(float), gamma) <= 1e-8
    assert is_permutation(gamma) is None


def test_hidden_symmetry_on_single_edge():
    g = Graph.from_edges([(0, 1)])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    candidates = [np.eye(2), -np.eye(2), swap, -swap]
    for seed in range(6):
        gamma = hidden_symmetry_sample(g, seed)
        assert commutator_residual(g.adjacency.astype(float), gamma) <= 1e-10
        assert min(np.max(np.abs(gamma - c)) for c in candidates) <= 1e-10


def test_is_permutation_identity():
    p = is_permutation(np.eye(4))
    assert p is not None and p.mapping == (0, 1, 2, 3)


def test_is_permutation_rejects_hidden_gamma():
    assert is_permutation(fixtures.GRAPH_HIDDEN_GAMMA) is None


def test_is_permutation_tolerance():
    swap = 0.999999 * np.array([[0.0, 1.0], [1.0, 0.0]])
    p = is_permutation(swap, tol=1e-4)
    assert p is not None and p.mapping == (1, 0)
    assert is_permutation(swap, tol=1e-9) is None


def test_find_isomorphism_planted():
    rng = np.random.default_rng(MASTER_SEED + 31)
    g = random_graph(rng, 8)
    perm = tuple(rng.permutation(8))
    h = relabel(g, perm)
    found = find_isomorphism(g, h)
    assert found is not None
    p = found.to_matrix()
    assert np.array_equal(p @ g.adjacency @ p.T, h.adjacency)


def test_find_isomorphism_path_vs_star():
    star = Graph.from_edges([(0, 1), (0, 2)])
    found = find_isomorphism(PATH3, star)
    assert found is not None
    p = found.to_matrix()
    assert np.array_equal(p @ PATH3.adjacency @ p.T, star.adjacency)


def test_find_isomorphism_edge_moved_variant():
    # moving the 1-5 edge to 1-4 (0-indexed) produces a cospectral graph;
    # the exhaustive 8!-search oracle says it is in fact a relabeling
    g = fixtures.asymmetric_graph()
    a = g.adjacency.copy()
    a[1, 5] = a[5, 1] = 0
    a[1, 4] = a[4, 1] = 1
    h = Graph(a)
    assert brute_force_isomorphisms(g.adjacency, a), "oracle: the graphs are isomorphic"
    found = find_isomorphism(g, h)
    assert found is not None
    p = found.to_matrix()
    assert np.array_equal(p @ g.adjacency @ p.T, h.adjacency)


def test_find_isomorphism_rejects_a_wrong_map(monkeypatch):
    # the post-check is an exception, not an assert, so it also runs
    # under ``python -O``
    monkeypatch.setattr(graphsym, "_search_maps", lambda *args, **kwargs: [(0, 1, 2)])
    star = Graph.from_edges([(0, 1), (0, 2)])
    with pytest.raises(StructureError, match="not an isomorphism"):
        find_isomorphism(PATH3, star)


def test_find_isomorphism_spectral_reject():
    g = PATH3
    h = Graph.from_edges([(0, 1)], n=3)  # different spectrum
    assert find_isomorphism(g, h) is None


def test_find_isomorphism_size_mismatch_and_cap():
    assert find_isomorphism(PATH3, Graph.from_edges([(0, 1)])) is None
    big = Graph(np.zeros((13, 13), dtype=int))
    with pytest.raises(SizeCapError):
        find_isomorphism(big, big)
