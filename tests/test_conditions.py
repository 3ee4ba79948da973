"""Degree-condition checkers and the two extremal families."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlab import (
    CHECKERS,
    Digraph,
    ParameterError,
    PreconditionError,
    check_ghouila_houri,
    check_kot,
    check_nash_williams_chvatal,
    check_posa_digraph,
    check_posa_min,
    check_semi_exact,
    degree_sequences,
    derive_min_semidegree,
    full_range_equivalence,
    gen_concluding_example,
    gen_extremal_chvatal,
    is_strongly_connected,
)
from helpers import random_digraph


def test_ghouila_houri_complete_and_cycle():
    assert check_ghouila_houri(Digraph.complete(6)).holds
    r = check_ghouila_houri(Digraph.directed_cycle(6))
    assert not r.holds and r.first_violation == 1


def test_posa_on_complete_and_near_complete():
    assert check_posa_digraph(Digraph.complete(7)).holds
    # remove all out-edges of vertex 0 except one: d_1^+ = 1 < 2
    edges = [(u, v) for u, v in Digraph.complete(7).edges() if u != 0]
    edges.append((0, 1))
    r = check_posa_digraph(Digraph(7, edges))
    assert not r.holds


def test_nwc_needs_strong_connectivity():
    # two complete halves, no cross edges
    edges = []
    for grp in (range(3), range(3, 6)):
        edges += [(u, v) for u in grp for v in grp if u != v]
    r = check_nash_williams_chvatal(Digraph(6, edges))
    assert not r.holds
    assert r.witness == {"strongly_connected": False}


def test_semi_exact_on_complete():
    for beta in (Fraction(1, 8), Fraction(1, 4)):
        assert check_semi_exact(Digraph.complete(10), beta).holds
        assert check_posa_min(Digraph.complete(10), beta).holds
        assert check_kot(Digraph.complete(10), beta).holds


def test_beta_validation():
    g = Digraph.complete(6)
    with pytest.raises(ParameterError):
        check_semi_exact(g, 0)
    with pytest.raises(ParameterError):
        check_semi_exact(g, Fraction(3, 2))


@given(st.integers(6, 14), st.floats(0.15, 0.85), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_posa_min_implies_semi_exact_and_kot_implies_semi_exact(n, p, seed):
    g = random_digraph(n, p, seed)
    beta = Fraction(1, 4)
    if check_posa_min(g, beta).holds:
        assert check_semi_exact(g, beta).holds
    if check_kot(g, beta).holds:
        assert check_semi_exact(g, beta).holds


@given(st.integers(6, 12), st.floats(0.2, 0.8), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_checkers_monotone_under_edge_addition(n, p, seed):
    """Adding one edge never breaks a holding degree condition."""
    g = random_digraph(n, p, seed)
    beta = Fraction(1, 4)
    held = {
        "gh": check_ghouila_houri(g).holds,
        "posa": check_posa_digraph(g).holds,
        "nwc": check_nash_williams_chvatal(g).holds,
        "semi": check_semi_exact(g, beta).holds,
        "pmin": check_posa_min(g, beta).holds,
        "kot": check_kot(g, beta).holds,
    }
    missing = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and not g.has_edge(u, v)
    ]
    if not missing:
        return
    g2 = Digraph(n, g.edges() + [missing[seed % len(missing)]])
    if held["gh"]:
        assert check_ghouila_houri(g2).holds
    if held["posa"]:
        assert check_posa_digraph(g2).holds
    if held["nwc"]:
        assert check_nash_williams_chvatal(g2).holds
    if held["semi"]:
        assert check_semi_exact(g2, beta).holds
    if held["pmin"]:
        assert check_posa_min(g2, beta).holds
    if held["kot"]:
        assert check_kot(g2, beta).holds


def test_derive_min_semidegree():
    g = Digraph.complete(12)
    assert derive_min_semidegree(g, Fraction(1, 4))
    c = Digraph.directed_cycle(12)
    with pytest.raises(PreconditionError):
        derive_min_semidegree(c, Fraction(1, 4))


@given(st.integers(8, 14), st.floats(0.3, 0.9), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_full_range_equivalence(n, p, seed):
    g = random_digraph(n, p, seed)
    assert full_range_equivalence(g, Fraction(1, 4))


def test_extremal_chvatal_structure():
    g = gen_extremal_chvatal(10, 4)
    assert is_strongly_connected(g)
    seqs = degree_sequences(g)
    # closed form (value x multiplicity): k x k, (n-1-k) x (n-2k), (n-1) x k
    n, k = 10, 4
    expected = tuple(sorted([k] * k + [n - 1 - k] * (n - 2 * k) + [n - 1] * k))
    assert seqs.out_sorted == expected
    assert seqs.in_sorted == expected
    r = check_nash_williams_chvatal(g)
    assert not r.holds and r.first_violation == 4


def test_extremal_chvatal_parameter_errors():
    with pytest.raises(ParameterError):
        gen_extremal_chvatal(10, 5)  # k = n/2 not allowed
    with pytest.raises(ParameterError):
        gen_extremal_chvatal(10, 0)


def test_concluding_example_structure():
    n, a = 10, Fraction(1, 5)
    g = gen_concluding_example(n, a)
    an = int(a * n)
    assert g.min_semidegree() == an
    # deliberately not strongly connected: the last block cannot reach the
    # first, which is what makes every disjoint-cycle cover small
    assert not is_strongly_connected(g)
    # all forward edges present
    assert all(g.has_edge(u, v) for u in range(n) for v in range(u + 1, n))
    with pytest.raises(ParameterError):
        gen_concluding_example(10, Fraction(1, 2))
    with pytest.raises(ParameterError):
        gen_concluding_example(10, Fraction(1, 3))  # a*n not integral


_PINNED_GRAPHS = {
    "cycle8": lambda: Digraph.directed_cycle(8),
    "chvatal": lambda: gen_extremal_chvatal(10, 4),
    "concluding": lambda: gen_concluding_example(10, Fraction(1, 5)),
}


def _w(i, d_out, d_in, threshold, clauses=None):
    """A witness dict in the key order the checkers emit."""
    witness = {"i": i, "d_out": d_out, "d_in": d_in}
    if clauses is not None:
        witness["clause_i"], witness["clause_ii"] = clauses
    witness["threshold"] = threshold
    return witness


_NO = (False, False)

# (graph, checker) -> (first_violation, witness) at beta = 1/4
_PINNED = {
    ("cycle8", "gh"): (1, _w(1, 1, 1, "4")),
    ("cycle8", "posa"): (1, _w(1, 1, 1, 2)),
    ("cycle8", "nwc"): (1, _w(1, 1, 1, 2, _NO)),
    ("cycle8", "semi-exact"): (1, _w(1, 1, 1, "3", _NO)),
    ("cycle8", "posa-min"): (1, _w(1, 1, 1, "3")),
    ("cycle8", "kot"): (1, _w(1, 1, 1, "3", _NO)),
    ("chvatal", "gh"): (1, _w(1, 4, 4, "5")),
    ("chvatal", "posa"): (4, _w(4, 4, 4, 5)),
    ("chvatal", "nwc"): (4, _w(4, 4, 4, 5, _NO)),
    ("chvatal", "semi-exact"): (2, _w(2, 4, 4, "9/2", _NO)),
    ("chvatal", "posa-min"): (2, _w(2, 4, 4, "9/2")),
    ("chvatal", "kot"): (2, _w(2, 4, 4, "9/2", _NO)),
    ("concluding", "gh"): (1, _w(1, 2, 2, "5")),
    ("concluding", "posa"): (2, _w(2, 2, 2, 3)),
    ("concluding", "nwc"): (None, {"strongly_connected": False}),
    ("concluding", "semi-exact"): (1, _w(1, 2, 2, "7/2", _NO)),
    ("concluding", "posa-min"): (1, _w(1, 2, 2, "7/2")),
    ("concluding", "kot"): (1, _w(1, 2, 2, "7/2", _NO)),
}


@pytest.mark.parametrize("graph, name", sorted(_PINNED))
def test_checker_witness_pinned(graph, name):
    report = CHECKERS[name](_PINNED_GRAPHS[graph](), Fraction(1, 4))
    first_violation, witness = _PINNED[(graph, name)]
    assert not report.holds
    assert report.first_violation == first_violation
    # key order and the int-vs-string form of threshold are part of to_json()
    assert list(report.witness.items()) == list(witness.items())
    assert type(report.witness.get("threshold")) is type(witness.get("threshold"))
