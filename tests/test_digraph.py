"""Core digraph types: construction, serialization, factors, certificates."""

import json
import pickle

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
from helpers import reference_digraph


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


def _reference_error(n, edges):
    try:
        reference_digraph(n, edges)
    except ParameterError as exc:
        return str(exc)
    return None


def _error(build):
    try:
        build()
    except ParameterError as exc:
        return str(exc)
    return None


def _differential_corpus():
    """Shuffled random digraphs on 0-60 vertices, every density, and the
    three named families."""
    rng = np.random.default_rng(2024)
    for n in range(61):
        for p in (0.05, 0.5, 0.95):
            mask = rng.random((n, n)) < p
            np.fill_diagonal(mask, False)
            edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(mask))]
            yield n, [edges[i] for i in rng.permutation(len(edges))]
    for n in (0, 1, 2, 3, 17, 60):
        yield n, Digraph.complete(n).edges()
        yield n, Digraph.directed_path(n).edges()
        if n >= 2:
            yield n, Digraph.directed_cycle(n).edges()


def test_constructor_equals_per_edge_reference():
    for n, edges in _differential_corpus():
        want = reference_digraph(n, edges)
        for g in (
            Digraph(n, edges),
            Digraph(n, iter(edges)),
            Digraph.from_arrays(
                n,
                np.array([u for u, _ in edges], dtype=np.int64),
                np.array([v for _, v in edges], dtype=np.int32),
            ),
        ):
            assert g.out_adj == want.out_adj, n
            assert g.in_adj == want.in_adj, n
            assert g.edge_count() == want.edge_count
            assert g.out_sets == want.out_sets and g.in_sets == want.in_sets
            assert g.indptr.tolist() == [0, *np.cumsum([len(a) for a in want.out_adj])]
            assert g.indices.tolist() == [v for row in want.out_adj for v in row]
            assert not g.indptr.flags.writeable and not g.indices.flags.writeable
            assert all(type(v) is int for row in g.out_adj + g.in_adj for v in row)


def test_neighbour_sets_are_built_on_first_read_per_direction():
    g = Digraph(4, [(0, 1), (1, 2), (2, 0), (3, 0)])
    assert g.in_sets == (frozenset({2, 3}), frozenset({0}), frozenset({1}), frozenset())
    assert g.has_edge(3, 0) and not g.has_edge(0, 3)
    assert g.out_sets == reference_digraph(4, g.edges()).out_sets
    assert type(g) is Digraph  # both filled: a plain Digraph again
    h = Digraph(4, g.edges())
    assert h.has_edge(1, 2) and h == g and hash(h) == hash(g)
    again = pickle.loads(pickle.dumps(h))
    assert again == h and again.in_sets == g.in_sets
    with pytest.raises(AttributeError):
        h.no_such_attribute


def test_constructor_error_is_the_reference_error():
    """The first bad edge in input order is reported, each edge checked for
    range, then self-loop, then an earlier copy; early, late, after a
    duplicate and between the two copies of one."""
    rng = np.random.default_rng(7)
    n = 60
    mask = rng.random((n, n)) < 0.8
    np.fill_diagonal(mask, False)
    base = [(int(u), int(v)) for u, v in zip(*np.nonzero(mask))]
    base = [base[i] for i in rng.permutation(len(base))]
    missing = next((u, v) for u in range(n) for v in range(n) if u != v and not mask[u, v])
    bad_edges = [(0, n), (n, 0), (-1, 3), (4, -2), (n + 5, n + 9), (2**40, 1),
                 (7, 7), (0, 0), base[5], base[-3]]
    checked = 0
    for bad in bad_edges:
        for at in (0, 1, len(base) // 2, len(base)):
            edges = base[:at] + [bad] + base[at:]
            layouts = [
                edges,
                edges + [missing, missing],  # a duplicate after it
                # a duplicate completed before it
                base[:at] + [base[0], bad] + base[at:],
                # the copies of a duplicate on both sides of it
                [base[at % len(base)]] + edges,
            ]
            for case in layouts:
                want = _reference_error(n, case)
                assert want is not None
                assert _error(lambda: Digraph(n, case)) == want, (bad, at)
                u, v = np.array(case).T
                assert _error(lambda: Digraph.from_arrays(n, u, v)) == want
                checked += 1
    assert checked == len(bad_edges) * 4 * 4
    assert _error(lambda: Digraph(0, [(0, 0)])) == _reference_error(0, [(0, 0)])


def test_vertex_labels_must_be_integers():
    cases = {
        "float": [(0, 1), (0.5, 1)],
        "string": [(0, 1), ("1", 2)],
        "beyond int64": [(0, 1), (2**70, 1)],
        "negative": [(0, 1), (-1, 2)],
        "triple": [(0, 1), (0, 1, 2)],
        "float array": np.array([[0.0, 1.0]]),
    }
    messages = {name: _error(lambda: Digraph(3, edges)) for name, edges in cases.items()}
    assert messages == {
        "float": "edge (0.5, 1) is not a pair of integer vertex labels",
        "string": "edge ('1', 2) is not a pair of integer vertex labels",
        "beyond int64": f"edge ({2**70},1) out of range for n=3",
        "negative": "edge (-1,2) out of range for n=3",
        "triple": "edge (0, 1, 2) is not a pair of integer vertex labels",
        "float array": "an edge array must be (m, 2) integers",
    }
    # an earlier bad edge is reported before a later unreadable one
    assert _error(lambda: Digraph(3, [(1, 1), (0.5, 1)])) == "self-loop at vertex 1"
    assert _error(lambda: Digraph(3, [(0, 5), ("a", 1)])) == "edge (0,5) out of range for n=3"
    with pytest.raises(ParameterError):
        Digraph.from_arrays(3, np.array([0.0]), np.array([1]))
    with pytest.raises(ParameterError):
        Digraph.from_arrays(3, [0, 1], [1])
    g = Digraph(3, [(np.int64(0), np.int64(1)), (np.int32(1), 2), (True, 0)])
    assert g.out_adj == ((1,), (0, 2), ())
    assert all(type(v) is int for row in g.out_adj for v in row)
    with pytest.raises(TypeError):
        Digraph(3.0, [])
    # JSON input is not truncated either
    assert _error(lambda: Digraph.from_json('{"n": 3, "edges": [[0.5, 1]]}')) == (
        "edge [0.5, 1] is not a pair of integer vertex labels"
    )


@pytest.mark.parametrize("label", [1.7, "1", True], ids=["float", "string", "bool"])
def test_json_factor_and_certificate_labels_are_strict(label):
    """A float, string or bool label is rejected by name, never cast."""
    named = f"vertex label {label!r} is not an integer"
    with pytest.raises(ParameterError) as exc:
        OneFactor.from_json(json.dumps({"cycles": [[0, label], [2, 3]]}))
    assert str(exc.value) == named
    with pytest.raises(MalformedCertificateError) as exc:
        HamiltonCertificate.from_json(json.dumps({"order": [0, label, 2]}))
    assert str(exc.value) == named


def test_json_factor_and_certificate_load_integer_labels():
    f = OneFactor.from_json('{"cycles": [[0, 1], [2, 3]]}')
    assert f.cycles == ((0, 1), (2, 3))
    with pytest.raises(ParameterError, match="vertex label 1.7 "):
        OneFactor.from_json('{"cycles": [[0, 1.7], [2.2, 3]]}')
    assert HamiltonCertificate.from_json('{"order": [0, 2, 1]}').order == (0, 2, 1)
