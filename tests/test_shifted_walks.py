"""Shifted walks, walk accounting, and the separator decomposition."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hamlab import (
    ContractError,
    Digraph,
    OneFactor,
    ParameterError,
    UnreachableError,
    WrongPipelineError,
    degree_sequences,
    find_separator,
    is_strongly_k_connected,
)
from hamlab.shifted_walks import (
    ShiftedWalk,
    account,
    build_H,
    decompose_components,
    disjoint_shifted_walks,
    find_shifted_walk,
    shorten_walk,
    verify_decomposition_bounds,
)
from helpers import random_digraph


def _factor(k):
    half = k // 2
    return OneFactor.from_cycles(k, [list(range(half)), list(range(half, k))])


def test_build_H_definition_and_degrees():
    for seed in range(10):
        r = random_digraph(16, 0.4, seed)
        f = _factor(16)
        h = build_H(r, f)
        for a in range(16):
            for b in range(16):
                if a == b:
                    continue
                assert h.has_edge(a, b) == r.has_edge(f.predecessor(a), b)
        # H permutes out-neighborhoods, so the out-degree multiset is
        # preserved up to dropped loops
        rs = degree_sequences(r)
        hs = degree_sequences(h)
        assert sum(rs.out_sorted) - sum(hs.out_sorted) == sum(
            1 for a in range(16) if r.has_edge(f.predecessor(a), a)
        )


def test_find_walk_validates_and_is_shortest():
    r = random_digraph(14, 0.35, 3)
    f = _factor(14)
    h = build_H(r, f)
    for a in range(5):
        for b in range(5, 10):
            try:
                w = find_shifted_walk(r, f, h, a, b)
            except UnreachableError:
                continue
            w.validate(r)
            assert w.a == a and w.b == b
            # BFS optimality: t equals the H-distance
            from hamlab.oracle import shortest_path

            assert w.t == len(shortest_path(h, a, b)) - 1


def test_find_walk_trivial_and_unreachable():
    r = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    f = OneFactor.from_cycles(4, [[0, 1, 2, 3]])
    assert find_shifted_walk(r, f, build_H(r, f), 2, 2).entries == (2,)
    with pytest.raises(ParameterError):
        find_shifted_walk(r, f, Digraph(3, []), 0, 1)  # H of another digraph
    sparse = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    # H of the cycle factor over the cycle digraph: pred(a) -> b edges
    with pytest.raises(UnreachableError):
        # forbid everything internal so only direct hops survive
        find_shifted_walk(sparse, f, build_H(sparse, f), 0, 1, forbidden={2, 3})


def test_forbidden_excludes_internal_clusters():
    r = random_digraph(16, 0.5, 1)
    f = _factor(16)
    w = find_shifted_walk(r, f, build_H(r, f), 0, 9, forbidden={4, 5})
    assert {4, 5}.isdisjoint(w.internal_clusters())


def test_shorten_idempotent_and_entry_unique():
    rng = np.random.default_rng(0)
    for seed in range(20):
        r = random_digraph(12, 0.45, seed)
        f = _factor(12)
        a, b = int(rng.integers(12)), int(rng.integers(12))
        try:
            w = find_shifted_walk(r, f, build_H(r, f), a, b)
        except UnreachableError:
            continue
        s = shorten_walk(w)
        s.validate(r)
        assert len(set(s.entries)) == len(s.entries)
        assert shorten_walk(s).entries == s.entries
        assert s.a == w.a and s.b == w.b


def test_account_totals():
    r = random_digraph(16, 0.5, 2)
    f = _factor(16)
    h = build_H(r, f)
    w1 = find_shifted_walk(r, f, h, 0, 10)
    w2 = find_shifted_walk(r, f, h, 3, 12)
    usage = account([w1, w2])
    assert usage.total_uses == 2 * (w1.t + w2.t)
    assert sum(usage.entrance_uses.values()) == w1.t + w2.t
    assert sum(usage.exit_uses.values()) == w1.t + w2.t


def test_concat():
    r = random_digraph(16, 0.5, 4)
    f = _factor(16)
    h = build_H(r, f)
    w1 = find_shifted_walk(r, f, h, 0, 8)
    w2 = find_shifted_walk(r, f, h, 8, 3)
    w = w1.concat(w2)
    w.validate(r)
    assert w.a == 0 and w.b == 3 and w.t == w1.t + w2.t
    with pytest.raises(Exception):
        w1.concat(find_shifted_walk(r, f, h, 3, 5))


def test_disjoint_walks_contract():
    for seed, c, p in ((0, Fraction(1, 5), 0.7), (1, Fraction(2, 5), 0.9)):
        k = 20
        r = random_digraph(k, p, seed)
        f = _factor(k)
        walks = disjoint_shifted_walks(r, f, 0, 11, c)
        needed = -((-(c * c * k)) // 16)
        assert len(walks) >= needed
        internal = Counter()
        for w in walks:
            w.validate(r)
            assert w.a == 0 and w.b == 11
            assert Fraction(w.t) <= 2 / c
            for x in w.internal_clusters():
                internal[x] += 1
        assert all(v <= 1 for v in internal.values())


def test_disjoint_walks_connectivity_gate():
    r = Digraph.directed_cycle(12)
    f = OneFactor.from_cycles(12, [list(range(12))])
    with pytest.raises(ContractError) as info:
        disjoint_shifted_walks(r, f, 0, 5, Fraction(2, 5))
    assert info.value.witness == sorted(find_separator(build_H(r, f), 5))


def _two_block_h(k, seed=0, cross=True):
    """Two dense blocks; D -> C edges only (no C -> D), plus a factor."""
    rng = np.random.default_rng(seed)
    half = k // 2
    edges = []
    for grp in (range(half), range(half, k)):
        for u in grp:
            for v in grp:
                if u != v and rng.random() < 0.9:
                    edges.append((u, v))
    if cross:
        for u in range(half, k):
            for v in range(half):
                if rng.random() < 0.5:
                    edges.append((u, v))
    h = Digraph(k, edges)
    f = OneFactor.from_cycles(k, [list(range(half)), list(range(half, k))])
    return h, f


def test_decompose_requires_disconnection():
    h = Digraph.complete(12)
    f = _factor(12)
    with pytest.raises(WrongPipelineError):
        decompose_components(h, f, Fraction(1, 6), Fraction(1, 24), Fraction(1, 4))


def test_decompose_two_block_instance():
    k = 40
    h, f = _two_block_h(k, seed=1)
    eta, eta_prime, beta = Fraction(1, 20), Fraction(1, 80), Fraction(1, 4)
    dec = decompose_components(h, f, eta, eta_prime, beta)
    # the separator is small and the parts partition the rest
    assert len(dec.s) < eta * k
    assert dec.c | dec.d | dec.s == frozenset(range(k))
    assert not (dec.c & dec.d)
    # no edges from C to D
    for u in dec.c:
        assert not (h.out_sets[u] & dec.d)
    # L/R/M_V partition the vertex set
    assert dec.left | dec.right | dec.m_v == frozenset(range(k))
    checks = verify_decomposition_bounds(dec, h, f, seed=0)
    failed = [c.name for c in checks if not c.holds]
    assert not failed, failed
