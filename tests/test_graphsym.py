import math
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orthosym import fixtures, graphsym, spectral
from orthosym.errors import LimitExceededError, SizeCapError, StructureError
from orthosym.graphsym import (
    Graph,
    adjacency_decomposition,
    automorphisms,
    find_isomorphism,
    hidden_symmetry_sample,
    is_permutation,
)
from orthosym.isotropy import commutator_residual, is_member

from helpers import MASTER_SEED, brute_force_isomorphisms, forced_vertices, random_cubic, scalar_search_maps

PATH3 = Graph.from_edges([(0, 1), (1, 2)])
K4 = Graph.from_edges([(i, j) for i in range(4) for j in range(i + 1, 4)])


def random_graph(rng, n, p=0.4):
    a = (rng.random((n, n)) < p).astype(int)
    a = np.triu(a, 1)
    return Graph(a + a.T)


def relabel(graph, perm):
    p = np.array(perm)
    return Graph(graph.adjacency[np.ix_(p, p)])


def rows(maps):
    """Vertex maps as the tuples the oracles in ``helpers`` list."""
    return [tuple(m) for m in maps.tolist()]


def perm_matrix(m):
    """P with P e_i = e_{m[i]}, so P A P^T = B iff B[m(u), m(v)] == A[u, v]."""
    p = np.zeros((len(m), len(m)), dtype=np.int64)
    p[m, np.arange(len(m))] = 1
    return p


def test_graph_validation():
    with pytest.raises(StructureError):
        Graph(np.array([[1, 0], [0, 0]]))  # self-loop
    with pytest.raises(StructureError):
        Graph(np.array([[0, 2], [2, 0]]))  # non-binary
    with pytest.raises(StructureError):
        Graph(np.array([[0, 1], [0, 0]]))  # asymmetric
    with pytest.raises(StructureError):
        Graph.from_edges([(0, 0)])


def test_a_graph_holds_its_adjacency_as_one_read_only_float64_array():
    # a read-only float64 matrix is kept as it is; anything else is copied
    # once, and the caller's array stays writable
    kept = np.array([[0.0, 1.0], [1.0, 0.0]])
    kept.setflags(write=False)
    assert Graph(kept).adjacency is kept
    given = np.array([[0, 1], [1, 0]])
    stored = Graph(given).adjacency
    assert stored.dtype == np.float64 and not stored.flags.writeable and given.flags.writeable
    assert stored.tobytes() == kept.tobytes()
    # -0.0 is stored as +0.0, writable or not, as the integers' zeros are
    signed = np.array([[-0.0, 1.0], [1.0, -0.0]])
    assert Graph(signed).adjacency.tobytes() == kept.tobytes()
    signed.setflags(write=False)
    assert Graph(signed).adjacency.tobytes() == kept.tobytes()


def test_the_empty_graph_has_an_empty_spectrum():
    graph = Graph(np.zeros((0, 0), dtype=int))
    assert adjacency_decomposition(graph).n == 0
    assert hidden_symmetry_sample(graph, 1).shape == (0, 0)


def test_building_a_sparse_graph_holds_one_dense_float64_array():
    # a path's edge list is tiny; the dense adjacency it becomes is n^2
    # float64 entries, and building it may hold little more than that
    n = 2000
    edges = [(i, i + 1) for i in range(n - 1)]
    tracemalloc.start()
    try:
        g = Graph.from_edges(edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.adjacency.dtype == np.float64 and int(g.adjacency.sum()) == 2 * (n - 1)
    assert not g.adjacency.flags.writeable
    assert peak < 1.5 * n * n * 8


def test_an_edge_list_index_past_the_cap_allocates_nothing():
    # before: np.zeros((10**8 + 1,) * 2) raised numpy's uncaught
    # "Unable to allocate 8.88 PiB"
    with pytest.raises(SizeCapError, match="^vertex index 100000000 needs 100000001 vertices"):
        Graph.from_edges([(0, 1), (1, 10**8)])
    cap = graphsym.MAX_EDGE_LIST_N
    with pytest.raises(SizeCapError, match=f"vertex index {cap} needs {cap + 1} vertices"):
        Graph.from_edges([(0, 1)], n=cap + 1)


def test_graph_from_edges():
    g = Graph.from_edges([(0, 1), (1, 2)], n=4)
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2)]
    assert [degree for degree, _ in graphsym._signatures(g.adjacency)[2]] == [1, 2, 1, 0]


def test_path_graph_automorphisms():
    assert automorphisms(PATH3).tolist() == [[0, 1, 2], [2, 1, 0]]


def test_complete_graph_automorphisms():
    auts = automorphisms(K4)
    assert len(auts) == 24


def test_automorphism_limit():
    with pytest.raises(LimitExceededError):
        automorphisms(K4, limit=10)
    assert len(automorphisms(K4, limit=24)) == 24
    # a negative limit was "more than -1 automorphisms found"
    with pytest.raises(ValueError, match="^limit must be nonnegative, got -1$"):
        automorphisms(K4, limit=-1)


def test_backtracking_agrees_with_brute_force():
    rng = np.random.default_rng(MASTER_SEED + 30)
    graphs = [PATH3, K4, fixtures.asymmetric_graph()]
    graphs += [random_graph(rng, int(rng.integers(4, 8))) for _ in range(6)]
    for g in graphs:
        if g.n > 8:
            continue
        expected = brute_force_isomorphisms(g.adjacency, g.adjacency)
        assert rows(automorphisms(g)) == expected


def test_long_path_needs_no_recursion():
    # one search position per vertex, far past the interpreter's recursion
    # limit
    n = 1200
    path = Graph.from_edges([(i, i + 1) for i in range(n - 1)])
    assert automorphisms(path).tolist() == [list(range(n)), list(range(n - 1, -1, -1))]


@st.composite
def relabelled_graphs(draw, max_n=8):
    """A random graph on at most ``max_n`` vertices and a random relabelling."""
    n = draw(st.integers(1, max_n))
    upper = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    a = np.zeros((n, n), dtype=np.int64)
    a[np.triu_indices(n, 1)] = upper
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int32)
    return Graph(a + a.T), perm


def conjugated(graph, perm):
    """The graph with adjacency P A P^T, P the matrix of ``perm``."""
    p = perm_matrix(perm)
    return Graph(p @ graph.adjacency @ p.T)


def test_search_agrees_with_brute_force_on_seeded_pairs():
    # relabelled copies, and unrelated graphs with as many edges; the
    # oracle lists the maps m with b[m(u), m(v)] == a[u, v]
    rng = np.random.default_rng(MASTER_SEED + 32)
    # regular graphs, where the degree signatures prune nothing: cycles
    # C5-C8, C3 + C4 and the 3-cube
    cycles = [[(i, (i + 1) % k) for i in range(k)] for k in (5, 6, 7, 8)]
    regular = [Graph.from_edges(e) for e in cycles]
    regular.append(Graph.from_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]))
    regular.append(Graph.from_edges([(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit]))
    for g in regular:
        for _ in range(4):
            a = relabel(g, rng.permutation(g.n)).adjacency
            b = relabel(g, rng.permutation(g.n)).adjacency
            assert sorted(rows(graphsym._search_maps(a, b, None, False))) == brute_force_isomorphisms(b, a)
    checked = 0
    while checked < 150:
        n = int(rng.integers(3, 8))
        p = float(rng.choice([0.3, 0.5, 0.7]))
        a = random_graph(rng, n, p).adjacency
        b = relabel(Graph(a), rng.permutation(n)) if checked % 2 else random_graph(rng, n, p)
        b = b.adjacency
        if a.sum() != b.sum():
            continue
        assert sorted(rows(graphsym._search_maps(a, b, None, False))) == brute_force_isomorphisms(b, a)
        checked += 1


def search_or_error(search, a, b, limit, first_only):
    try:
        return search(a, b, limit, first_only)
    except LimitExceededError as exc:
        return f"LimitExceededError: {exc}"


def assert_search_matches_the_oracle(a, b, limits):
    # the same maps in the same order, or the same error at the same leaf;
    # ``b is a`` is the shortcut automorphisms takes, so it is kept
    for limit in limits:
        for first_only in (False, True):
            got = search_or_error(lambda *args: rows(graphsym._search_maps(*args)), a, b, limit, first_only)
            assert got == search_or_error(scalar_search_maps, a, b, limit, first_only), (limit, first_only)


def search_partners(a, rng_perm, toggle):
    """``a`` itself, a relabelled copy and, for 2 <= n <= 9, a copy with one
    vertex pair toggled.  That copy is never isomorphic, so no limit cuts
    its search short: on an empty graph it visits about (n - 2)! partial
    maps."""
    n = a.shape[0]
    p = np.asarray(rng_perm, dtype=np.intp)
    partners = [a, a[np.ix_(p, p)]]
    if 2 <= n <= 9:
        u, v = toggle
        c = a.copy()
        c[u, v] = c[v, u] = 1 - c[u, v]
        partners.append(c)
    return partners


@settings(max_examples=60, deadline=None)
@given(case=relabelled_graphs(max_n=12), data=st.data())
def test_batched_search_matches_the_one_map_at_a_time_oracle(case, data):
    g, perm = case
    a = g.adjacency
    toggle = data.draw(st.permutations(range(g.n)))[:2]
    # a full listing is bounded only at small n, where n! stays small
    limits = (None, 0, 3) if g.n <= 7 else (0, 3, 1000)
    for b in search_partners(a, perm, toggle):
        assert_search_matches_the_oracle(a, b, limits)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(outer + inner + [(i, i + 5) for i in range(5)])


@pytest.mark.parametrize(
    "graph",
    [
        Graph(np.zeros((0, 0), dtype=int)),
        Graph(np.zeros((1, 1), dtype=int)),
        *[Graph.from_edges([(i, (i + 1) % k) for i in range(k)]) for k in (5, 6, 7, 8)],
        Graph.from_edges([(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit]),
        petersen(),
    ],
    ids=["n0", "n1", "C5", "C6", "C7", "C8", "Q3", "petersen"],
)
def test_batched_search_matches_the_oracle_on_examples(graph):
    rng = np.random.default_rng(MASTER_SEED + 33)
    toggle = rng.permutation(graph.n)[:2]
    for b in search_partners(graph.adjacency, rng.permutation(graph.n), toggle):
        assert_search_matches_the_oracle(graph.adjacency, b, (None, 0, 3))


def gnp(rng, n, p=0.3):
    """G(n, p) as an int64 adjacency, drawn as the benchmark draws it."""
    a = np.triu((rng.random((n, n)) < p).astype(np.int64), 1)
    return a + a.T


def search_counting_children(monkeypatch, a, b):
    """``_search_maps(a, b)`` listing every map, and how many children each
    of its steps created, counted where it joins them as (parent images,
    image) rows."""
    created = []
    concatenate = np.concatenate

    def counting(arrays, axis=0, **kwargs):
        out = concatenate(arrays, axis=axis, **kwargs)
        if axis == 1:
            created.append(len(out))
        return out

    monkeypatch.setattr(np, "concatenate", counting)
    try:
        return graphsym._search_maps(a, b, None, False), created
    finally:
        monkeypatch.setattr(np, "concatenate", concatenate)


@pytest.mark.parametrize("name", ["C6", "Q3", "petersen", "cubic12", "asymmetric", "gnp20", "gnp30", "gnp40"])
def test_batched_search_visits_the_same_tree(monkeypatch, name):
    # node for node: below the prefix of forced vertices, the batched search
    # creates exactly the partial maps that placing one image at a time, in
    # its order, visits (fewer only when a vertex has no candidate image at
    # all or the prefix does not fit, where it stops at once).  The prefix
    # is one row, where the reference places one image per forced vertex;
    # the regular graphs have none.  The count condition, for one, only
    # prunes: degree signatures already force the same leaves, so only the
    # size of the tree shows it.
    graphs = {
        "C6": Graph.from_edges([(i, (i + 1) % 6) for i in range(6)]),
        "Q3": Graph.from_edges([(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit]),
        "petersen": petersen(),
        "cubic12": Graph(random_cubic(np.random.default_rng(MASTER_SEED + 41), 12)),
        "asymmetric": fixtures.asymmetric_graph(),
        # seeded G(n, 0.3) draws in which a few vertices still branch
        "gnp20": Graph(gnp(np.random.default_rng(MASTER_SEED + 46), 20)),
        "gnp30": Graph(gnp(np.random.default_rng(MASTER_SEED + 49), 30)),
        "gnp40": Graph(gnp(np.random.default_rng(MASTER_SEED + 91), 40)),
    }
    a = graphs[name].adjacency
    rng = np.random.default_rng(MASTER_SEED + 34)
    partners = search_partners(a, rng.permutation(len(a)), rng.permutation(len(a))[:2])
    for i, b in enumerate(partners):
        placed = []
        expected = scalar_search_maps(a, b, None, False, placed, forced_first=True)
        got, created = search_counting_children(monkeypatch, a, b)
        assert rows(got) == expected
        if i < 2:  # a itself and the relabelled copy
            assert sum(created) == len(placed) - len(forced_vertices(a, b)) > 0
        else:
            assert sum(created) <= len(placed)


def test_an_all_forced_graph_needs_no_search_step(monkeypatch):
    # every vertex of this G(30, 0.3) draw has its own degree signature, so
    # the prefix is the whole map: the identity, or the relabelling
    a = gnp(np.random.default_rng(MASTER_SEED + 41), 30)
    perm = np.random.default_rng(MASTER_SEED + 42).permutation(30)
    b = a[np.ix_(perm, perm)]
    assert len(forced_vertices(a, b)) == 30
    for partner in (a, b):
        got, created = search_counting_children(monkeypatch, a, partner)
        assert created == []
        assert rows(got) == scalar_search_maps(a, partner, None, False)
    assert rows(got) == [tuple(np.argsort(perm).tolist())]
    assert automorphisms(Graph(a)).tolist() == [list(range(30))]


def test_two_vertices_forced_onto_one_image_give_no_map(monkeypatch):
    # every vertex of C6 has signature (2, (2, 2)); C6 with the chord 0-2
    # has one such vertex, 4, so all six would need it.  The prefix check
    # sees that before any step; placing one image at a time in degree
    # order would first take vertex 0 to 4
    c6 = Graph.from_edges([(i, (i + 1) % 6) for i in range(6)]).adjacency
    chord = c6.copy()
    chord[0, 2] = chord[2, 0] = 1
    assert forced_vertices(c6, chord) == list(range(6))
    got, created = search_counting_children(monkeypatch, c6, chord)
    assert got.shape == (0, 6) and created == []
    assert brute_force_isomorphisms(chord, c6) == []


def test_search_on_a_long_path_holds_less_than_n_squared_bytes():
    # a path's search tree is a chain: the batched search must drop each
    # level once expanded, or it holds O(n^2) images per level
    n = 2000
    path = Graph.from_edges([(i, i + 1) for i in range(n - 1)])
    tracemalloc.start()
    try:
        auts = automorphisms(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(auts) == 2
    assert peak < n * n


def test_search_on_a_wide_deep_tree_stays_within_its_stack_bound():
    # 100 disjoint triangles: 300 levels, each with up to 300 candidates per
    # partial map; the first 101 leaves lie far below the root.  The stack
    # bound is (_HOLD + n(n + 1)/2) int32 images, 4.4 MB here, and 2 MB is
    # left for one step's arrays and the 101 maps.  Keeping every child
    # instead peaks at about 670 MB.
    triangles = Graph.from_edges([(3 * t + i, 3 * t + (i + 1) % 3) for t in range(100) for i in range(3)])
    n = triangles.n
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceededError):
            automorphisms(triangles, limit=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (graphsym._HOLD + n * (n + 1) // 2) + 2 * 2**20


class _Cut(BaseException):
    pass


def test_a_stalled_search_stays_small():
    # a random cubic graph on 30 vertices: degree signatures prune nothing,
    # and the search runs far past 1 s; what it holds must stay bounded
    a = random_cubic(np.random.default_rng(MASTER_SEED + 40), 30)

    def cut(signum, frame):
        raise _Cut

    previous = signal.signal(signal.SIGALRM, cut)
    tracemalloc.start()
    timer = (0.0, 0.0)
    try:
        timer = signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(_Cut):
            graphsym._search_maps(a, a, None, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, previous)
        tracemalloc.stop()
    assert peak < 64 * 2**20


@settings(max_examples=100, deadline=None)
@given(case=relabelled_graphs())
def test_relabelled_graph_has_the_conjugate_automorphism_group(case):
    g, perm = case
    limit = math.factorial(g.n)
    auts = automorphisms(g, limit)
    assert rows(auts) == brute_force_isomorphisms(g.adjacency, g.adjacency)
    # perm g perm^-1 sends perm[u] to perm[g[u]]
    conjugates = np.empty_like(auts)
    conjugates[:, perm] = perm[auts]
    expected = sorted(rows(conjugates))
    assert rows(automorphisms(conjugated(g, perm), limit)) == expected


@settings(max_examples=100, deadline=None)
@given(case=relabelled_graphs())
def test_automorphisms_are_one_read_only_int_array(case):
    g, perm = case
    for graph in (g, conjugated(g, perm)):
        maps = automorphisms(graph, math.factorial(graph.n))
        assert maps.dtype == np.int32 and maps.ndim == 2 and maps.shape[1] == graph.n
        assert not maps.flags.writeable
        # strictly ascending rows: the first entry that differs grows
        for m0, m1 in zip(maps.tolist(), maps[1:].tolist()):
            assert m0 < m1
        for m in maps:
            assert np.array_equal(np.sort(m), np.arange(graph.n))
            assert np.array_equal(graph.adjacency[np.ix_(m, m)], graph.adjacency)


@pytest.mark.parametrize("n", [0, 1])
def test_the_smallest_graphs_have_one_map(n):
    g = Graph(np.zeros((n, n), dtype=int))
    maps = automorphisms(g)
    assert maps.shape == (1, n) and maps.dtype == np.int32 and not maps.flags.writeable
    assert maps.tolist() == [list(range(n))]
    found = find_isomorphism(g, g)
    assert found.tolist() == list(range(n)) and found.dtype == np.int32
    assert not found.flags.writeable


@settings(max_examples=100, deadline=None)
@given(case=relabelled_graphs())
def test_find_isomorphism_of_a_relabelled_graph(case):
    g, perm = case
    h = conjugated(g, perm)
    found = find_isomorphism(g, h)
    assert found is not None
    p = perm_matrix(found)
    assert np.array_equal(p @ g.adjacency @ p.T, h.adjacency)
    # brute_force_isomorphisms(b, a) lists the maps m with b[m(u), m(v)] == a[u, v]
    every = brute_force_isomorphisms(h.adjacency, g.adjacency)
    assert tuple(found.tolist()) in every
    assert sorted(rows(graphsym._search_maps(g.adjacency, h.adjacency, None, False))) == every


@settings(max_examples=100, deadline=None)
@given(case=relabelled_graphs(), data=st.data())
def test_graphs_one_edge_apart(case, data):
    g, perm = case
    assume(g.n >= 2)
    u, v = data.draw(st.permutations(range(g.n)))[:2]
    a = conjugated(g, perm).adjacency.copy()
    a[u, v] = a[v, u] = 1 - a[u, v]
    assert brute_force_isomorphisms(a, g.adjacency) == []
    assert graphsym._search_maps(g.adjacency, a, None, False).shape == (0, g.n)
    assert find_isomorphism(g, Graph(a)) is None


def test_automorphism_group_axioms():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])  # 4-cycle
    auts = automorphisms(g)
    assert len(auts) == 8
    mappings = set(rows(auts))
    for a in mappings:
        assert tuple(np.argsort(a).tolist()) in mappings  # the inverse
        for b in mappings:
            assert tuple(a[j] for j in b) in mappings  # a after b


def test_automorphisms_lie_in_orthogonal_group():
    for g in (PATH3, K4, fixtures.asymmetric_graph()):
        dec = adjacency_decomposition(g)
        for a in automorphisms(g):
            assert is_member(dec, perm_matrix(a).astype(float), tol=1e-8)


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
    assert p is not None and p.tolist() == [0, 1, 2, 3]


def test_is_permutation_rejects_hidden_gamma():
    assert is_permutation(fixtures.GRAPH_HIDDEN_GAMMA) is None


def test_is_permutation_tolerance():
    swap = 0.999999 * np.array([[0.0, 1.0], [1.0, 0.0]])
    p = is_permutation(swap, tol=1e-4)
    assert p is not None and p.tolist() == [1, 0]
    assert is_permutation(swap, tol=1e-9) is None


def test_find_isomorphism_planted():
    rng = np.random.default_rng(MASTER_SEED + 31)
    g = random_graph(rng, 8)
    perm = tuple(rng.permutation(8))
    h = relabel(g, perm)
    found = find_isomorphism(g, h)
    assert found is not None
    p = perm_matrix(found)
    assert np.array_equal(p @ g.adjacency @ p.T, h.adjacency)


def test_find_isomorphism_path_vs_star():
    star = Graph.from_edges([(0, 1), (0, 2)])
    found = find_isomorphism(PATH3, star)
    assert found is not None
    p = perm_matrix(found)
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
    p = perm_matrix(found)
    assert np.array_equal(p @ g.adjacency @ p.T, h.adjacency)


def test_find_isomorphism_rejects_a_wrong_map(monkeypatch):
    # the post-check is an exception, not an assert, so it also runs
    # under ``python -O``
    monkeypatch.setattr(graphsym, "_search_maps", lambda *args, **kwargs: np.array([[0, 1, 2]], np.int32))
    star = Graph.from_edges([(0, 1), (0, 2)])
    with pytest.raises(StructureError, match="not an isomorphism"):
        find_isomorphism(PATH3, star)
    # a map that is not a bijection, although it carries edges onto edges
    monkeypatch.setattr(graphsym, "_search_maps", lambda *args, **kwargs: np.array([[0, 0]], np.int32))
    empty = Graph(np.zeros((2, 2), dtype=int))
    with pytest.raises(StructureError, match=r"not an isomorphism: \[0, 0\]"):
        find_isomorphism(empty, empty)


def test_find_isomorphism_spectral_reject():
    g = PATH3
    h = Graph.from_edges([(0, 1)], n=3)  # different spectrum
    assert find_isomorphism(g, h) is None


def test_find_isomorphism_size_mismatch_and_cap(monkeypatch):
    assert find_isomorphism(PATH3, Graph.from_edges([(0, 1)])) is None
    # a 13-vertex pair with different spectra: the cap refuses it before
    # any eigenvalue is computed
    def no_spectrum(*args, **kwargs):
        raise AssertionError("a spectrum was computed")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
    monkeypatch.setattr(np.linalg, "eigh", no_spectrum)
    monkeypatch.setattr(spectral, "eig_sym", no_spectrum)
    monkeypatch.setattr(graphsym, "eig_sym", no_spectrum)
    path = Graph.from_edges([(i, i + 1) for i in range(12)])
    with pytest.raises(SizeCapError, match="capped at n <= 12"):
        find_isomorphism(path, Graph(np.zeros((13, 13), dtype=int)))
