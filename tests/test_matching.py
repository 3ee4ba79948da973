"""Matching, covers, Hall violators, 1-factors, connectivity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlab import (
    BipartiteGraph,
    Digraph,
    PreconditionError,
    defect_hall_matching,
    find_one_factor,
    find_separator,
    hall_violator,
    internally_disjoint_paths,
    is_strongly_connected,
    is_strongly_k_connected,
    max_matching,
    min_cover,
    strong_connectivity,
    vertex_menger_value,
)
from helpers import (
    bipartite_edges,
    bipartite_rows,
    brute_max_matching,
    brute_vertex_menger,
    covers_all_edges,
    exhaustive_hall_factor_exists,
    random_bipartite,
    random_digraph,
    reference_find_separator,
    reference_hall_violator,
    reference_internally_disjoint_paths,
    reference_max_matching,
    reference_min_cover,
    reference_strong_connectivity,
    reference_vertex_menger_value,
)


def _assert_valid_matching(b, m):
    a_used = [a for a, _ in m.pairs]
    b_used = [bb for _, bb in m.pairs]
    assert len(set(a_used)) == len(a_used)
    assert len(set(b_used)) == len(b_used)
    assert set(m.pairs) <= bipartite_edges(b)


@given(
    st.integers(1, 7), st.integers(1, 7),
    st.floats(0.05, 0.9), st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_max_matching_matches_brute_force(na, nb, p, seed):
    b = random_bipartite(na, nb, p, seed)
    m = max_matching(b)
    _assert_valid_matching(b, m)
    assert m.size() == brute_max_matching(b)


@given(
    st.integers(1, 8), st.integers(1, 8),
    st.floats(0.05, 0.9), st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_koenig_equality_and_cover_validity(na, nb, p, seed):
    b = random_bipartite(na, nb, p, seed)
    m = max_matching(b)
    c = min_cover(b)
    assert m.size() == c.size()
    assert covers_all_edges(b, c.a_side, c.b_side)


def test_matching_known_values():
    b = BipartiteGraph.from_edges(3, 3, [(0, 0), (0, 1), (1, 0), (2, 2)])
    assert max_matching(b).size() == 3
    star = BipartiteGraph.from_edges(4, 1, [(i, 0) for i in range(4)])
    assert max_matching(star).size() == 1
    assert min_cover(star).size() == 1


def test_hall_violator_reverifies():
    # A = {0,1,2} all pointing only at B-vertex 0
    b = BipartiteGraph.from_edges(3, 2, [(0, 0), (1, 0), (2, 0)])
    s = hall_violator(b)
    assert s is not None
    nbrs = {j for i in s for j in bipartite_rows(b)[i]}
    assert len(nbrs) < len(s)
    # defect 2 tolerates it
    assert hall_violator(b, defect=2) is None
    assert defect_hall_matching(b, 2).size() == 1
    with pytest.raises(PreconditionError):
        defect_hall_matching(b, 0)


@given(st.integers(2, 7), st.floats(0.1, 0.9), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_one_factor_dichotomy_vs_exhaustive_hall(n, p, seed):
    g = random_digraph(n, p, seed)
    cert = find_one_factor(g)
    exists = exhaustive_hall_factor_exists(g)
    if cert.factor is not None:
        assert exists
        assert all(g.has_edge(v, cert.factor.successor(v)) for v in range(n))
    else:
        assert not exists
        s = cert.violator
        nbrs = set()
        for v in s:
            nbrs |= g.out_sets[v]
        assert len(nbrs) < len(s)


def test_menger_value_matches_brute_force():
    for seed in range(25):
        g = random_digraph(7, 0.35, seed)
        for x in range(3):
            for y in range(3, 6):
                if x == y or g.has_edge(x, y):
                    continue
                assert vertex_menger_value(g, x, y) == brute_vertex_menger(g, x, y)


def test_internally_disjoint_paths_are_disjoint():
    g = random_digraph(12, 0.5, 3)
    x, y = 0, 11
    if g.has_edge(x, y):
        pytest.skip("adjacent pair in this seed")
    count = vertex_menger_value(g, x, y)
    paths = internally_disjoint_paths(g, x, y, count)
    assert len(paths) == count
    interior = [v for p in paths for v in p[1:-1]]
    assert len(interior) == len(set(interior))
    for p in paths:
        assert p[0] == x and p[-1] == y
        assert all(g.has_edge(p[i], p[i + 1]) for i in range(len(p) - 1))


def test_strong_connectivity_basics():
    c = Digraph.directed_cycle(6)
    assert is_strongly_connected(c)
    assert strong_connectivity(c) == 1
    assert is_strongly_k_connected(c, 1)
    assert not is_strongly_k_connected(c, 2)
    assert not is_strongly_connected(Digraph.directed_path(4))
    k = Digraph.complete(5)
    assert strong_connectivity(k) == 4


def test_find_separator():
    # two 4-cliques joined through a single cut vertex 8
    edges = []
    for grp in (range(4), range(4, 8)):
        edges += [(u, v) for u in grp for v in grp if u != v]
    edges += [(3, 8), (8, 4), (7, 8), (8, 0)]
    g = Digraph(9, edges)
    sep = find_separator(g, 2)
    assert sep is not None and len(sep) < 2
    rest = g.remove_vertices(sep)
    assert not is_strongly_connected(rest)
    assert find_separator(Digraph.complete(5), 3) is None


def _assert_equals_reference(b):
    m = max_matching(b)
    _assert_valid_matching(b, m)
    assert m.size() == reference_max_matching(b).size()
    assert min_cover(b) == reference_min_cover(b)
    for defect in range(3):
        assert hall_violator(b, defect) == reference_hall_violator(b, defect)


def test_hall_queries_equal_reference_on_imperfect_doubled_graphs():
    imperfect = 0
    for seed in range(300):
        n = 4 + seed % 11
        g = random_digraph(n, 0.08 + 0.3 * (seed % 7) / 6, seed)
        gamma = BipartiteGraph.from_edges(n, n, g.edges())
        expected = reference_hall_violator(gamma, 0)
        cert = find_one_factor(g)
        _assert_equals_reference(gamma)
        if expected is None:
            assert cert.factor is not None
            assert all(g.has_edge(v, cert.factor.successor(v)) for v in range(n))
            continue
        imperfect += 1
        assert cert.violator == frozenset(expected)
    assert imperfect >= 100
    # unequal sides, sparse to dense
    for seed in range(300):
        na, nb = 1 + seed % 9, 1 + (seed * 7) % 13
        p = 0.05 + 0.9 * (seed % 10) / 9
        _assert_equals_reference(random_bipartite(na, nb, p, seed))
    # a side of size 0
    for na, nb in [(0, 0), (0, 4), (4, 0)]:
        _assert_equals_reference(BipartiteGraph.from_edges(na, nb, []))


@given(st.integers(2, 7), st.floats(0.1, 0.95), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_menger_value_matches_brute_force_all_pairs(n, p, seed):
    g = random_digraph(n, p, seed)
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            value = brute_vertex_menger(g, x, y)
            assert vertex_menger_value(g, x, y) == value
            for limit in range(1, n):
                assert vertex_menger_value(g, x, y, limit) == min(value, limit)
            assert len(internally_disjoint_paths(g, x, y, n)) == value


def test_complete_digraph_counts_direct_arc_as_one_path():
    k4 = Digraph.complete(4)
    assert vertex_menger_value(k4, 0, 1) == 3
    assert internally_disjoint_paths(k4, 0, 1, 3) == [[0, 1], [0, 2, 1], [0, 3, 1]]
    assert internally_disjoint_paths(k4, 0, 1, 1) == [[0, 1]]
    assert strong_connectivity(k4) == 3


def _circulant(n: int, d: int) -> Digraph:
    return Digraph(n, [(i, (i + j) % n) for i in range(n) for j in range(1, d + 1)])


@pytest.mark.parametrize("n, d", [(9, 2), (11, 3), (13, 4)])
def test_circulant_pairs_need_the_flow(n, d):
    # (0, 2d) has the single common neighbour d but Menger value d
    g = _circulant(n, d)
    assert len(g.out_sets[0] & g.in_sets[2 * d]) == 1
    assert vertex_menger_value(g, 0, 2 * d) == d
    paths = internally_disjoint_paths(g, 0, 2 * d, d)
    assert paths == reference_internally_disjoint_paths(g, 0, 2 * d, d)
    assert len(paths) == d
    assert find_separator(g, d) is None
    sep = find_separator(g, d + 1)
    assert sep == reference_find_separator(g, d + 1)
    assert len(sep) == d
    assert not is_strongly_connected(g.remove_vertices(sep))
    assert strong_connectivity(g) == d


def test_menger_kernels_equal_per_pair_flow_reference():
    with_separator = 0
    cases = 600
    for seed in range(cases):
        n = 3 + seed % 18
        g = random_digraph(n, 0.2 + 0.77 * ((seed * 37) % 100) / 99, seed)
        k = 1 + (seed * 7) % n
        sep = find_separator(g, k)
        assert sep == reference_find_separator(g, k)
        with_separator += sep is not None
        assert is_strongly_k_connected(g, k) == (n > k and sep is None)
        if seed % 4 == 0:
            assert strong_connectivity(g) == reference_strong_connectivity(g)
        x, y = seed % n, (seed * 5 + 1) % n
        if x == y:
            y = (y + 1) % n
        count = 1 + (seed * 3) % n
        assert vertex_menger_value(g, x, y) == reference_vertex_menger_value(g, x, y)
        assert vertex_menger_value(g, x, y, count) == reference_vertex_menger_value(
            g, x, y, count
        )
        assert internally_disjoint_paths(
            g, x, y, count
        ) == reference_internally_disjoint_paths(g, x, y, count)
    assert with_separator >= cases // 3
