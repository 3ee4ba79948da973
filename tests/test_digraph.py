"""Core digraph types: construction, serialization, factors, certificates."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlab import (
    BipartiteGraph,
    Digraph,
    HamiltonCertificate,
    MalformedCertificateError,
    OneFactor,
    ParameterError,
    degree_sequences,
    distances_on_factor,
    max_matching,
    verify_hamilton_cycle,
)


def test_rejects_loops_duplicates_and_range():
    with pytest.raises(ParameterError):
        Digraph(3, [(0, 0)])
    with pytest.raises(ParameterError):
        Digraph(3, [(0, 1), (0, 1)])
    with pytest.raises(ParameterError):
        Digraph(3, [(0, 3)])


def test_complete_cycle_path_counts():
    assert Digraph.complete(5).edge_count() == 20
    assert Digraph.directed_cycle(5).edge_count() == 5
    assert Digraph.directed_path(5).edge_count() == 4
    assert Digraph.complete(4).min_semidegree() == 3
    assert Digraph.directed_path(4).min_semidegree() == 0


def test_edges_lexicographic():
    g = Digraph(3, [(2, 0), (0, 2), (1, 0)])
    assert g.edges() == [(0, 2), (1, 0), (2, 0)]


def test_induced_subdigraph_relabels():
    g = Digraph(5, [(0, 2), (2, 4), (4, 0), (1, 3)])
    sub = g.induced_subdigraph({0, 2, 4})
    # vertices 0,2,4 become 0,1,2 in sorted order
    assert sub.n == 3
    assert sub.edges() == [(0, 1), (1, 2), (2, 0)]


def test_degree_sequences_sorted_one_based():
    g = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    seqs = degree_sequences(g)
    assert seqs.out_sorted == (0, 1, 2)
    assert seqs.in_sorted == (0, 1, 2)
    assert seqs.d_out(1) == 0 and seqs.d_out(3) == 2


@given(st.integers(2, 9), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_json_round_trip_byte_identical(n, seed):
    from helpers import random_digraph

    g = random_digraph(n, 0.4, seed)
    text = g.to_json()
    again = Digraph.from_json(text)
    assert again == g
    assert again.to_json() == text


def test_text_round_trip():
    g = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert Digraph.from_text(g.to_text()) == g


def test_verify_hamilton_cycle():
    c = Digraph.directed_cycle(5)
    assert verify_hamilton_cycle(c, HamiltonCertificate((0, 1, 2, 3, 4)))
    assert not verify_hamilton_cycle(c, HamiltonCertificate((0, 2, 1, 3, 4)))
    with pytest.raises(MalformedCertificateError):
        verify_hamilton_cycle(c, HamiltonCertificate((0, 1, 2)))


def test_one_factor_validation():
    with pytest.raises(ParameterError):
        OneFactor((0, 1))  # fixed points
    with pytest.raises(ParameterError):
        OneFactor((1, 1))  # not a permutation
    host = Digraph.directed_cycle(4)
    f = OneFactor((1, 2, 3, 0), host=host)
    assert f.cycles == ((0, 1, 2, 3),)
    with pytest.raises(ParameterError):
        OneFactor((1, 0, 3, 2), host=host)  # (0,1) not a host edge


def test_one_factor_json_round_trip():
    f = OneFactor.from_cycles(6, [[0, 1, 2], [3, 4, 5]])
    again = OneFactor.from_json(f.to_json())
    assert again.succ == f.succ
    assert json.loads(f.to_json()) == {"cycles": [[0, 1, 2], [3, 4, 5]]}


def test_distances_on_factor():
    f = OneFactor.from_cycles(7, [[0, 1, 2, 3, 4], [5, 6]])
    assert distances_on_factor(f, 0, 2) == {2, 3}
    assert distances_on_factor(f, 0, 0) == {0, 5}
    assert distances_on_factor(f, 0, 5) == set()
    assert distances_on_factor(f, 5, 6) == {1}


def test_bipartite_duplicate_edge_rejected():
    with pytest.raises(ParameterError):
        BipartiteGraph.from_edges(2, 2, [(0, 1), (0, 1)])
    b = BipartiteGraph.from_edges(2, 3, [(0, 2), (1, 0)])
    assert b.indptr.tolist() == [0, 1, 2]
    assert b.indices.tolist() == [2, 0]
    for edges in [[(0, 0), (-1, 0)], [(0, -1)], [(2, 0)], [(1, 3)], [(0, 1, 2)]]:
        with pytest.raises(ParameterError):
            BipartiteGraph.from_edges(2, 3, edges)
    # rows are sorted, so the edge order does not reach the matching
    rng = np.random.default_rng(5)
    edges = [(a, b) for a in range(9) for b in range(7) if rng.random() < 0.4]
    b = BipartiteGraph.from_edges(9, 7, edges)
    expected = max_matching(b).pairs
    for _ in range(10):
        shuffled = [edges[i] for i in rng.permutation(len(edges))]
        again = BipartiteGraph.from_edges(9, 7, shuffled)
        assert again.indptr.tolist() == b.indptr.tolist()
        assert again.indices.tolist() == b.indices.tolist()
        assert max_matching(again).pairs == expected
