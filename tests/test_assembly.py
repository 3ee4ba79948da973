"""Stagewise invariants of the Hamilton assembly pipeline."""

from collections import Counter
from fractions import Fraction

import pytest

from hamlab import (
    ContractError,
    Digraph,
    OneFactor,
    ParameterError,
    WrongPipelineError,
    verify_hamilton_cycle,
)
from hamlab.assembly import (
    assemble_hamilton,
    assign_exceptional,
    build_walk,
    complete_factor,
    fix_edges,
    merge_at_cluster,
    reserve_ideals,
)
from hamlab.generators import gen_blowup

ETA = Fraction(1, 4)
EPS = Fraction(2, 5)
D = Fraction(7, 20)


def _instance(k=8, m=10, density=0.8, v0=1, seed=0):
    r0 = Digraph.complete(k)
    f0 = OneFactor.from_cycles(k, [list(range(0, 4)), list(range(4, k))])
    g, part, f = gen_blowup(r0, f0, m, Fraction(density).limit_denominator(100),
                            v0_count=v0, seed=seed)
    return g, part, f, r0


def test_reserve_ideals_stay_inside_clusters_and_bound():
    g, part, f, _ = _instance(seed=1)
    ideals = reserve_ideals(g, part, f, EPS, D, seed=1)
    limit = 32 * D * part.m
    for x in range(part.k):
        assert ideals.star[x] <= set(part.clusters[x])
        assert len(ideals.star[x]) <= limit
        a_star, b_star = ideals.per_edge[x]
        assert a_star <= set(part.clusters[x])
        assert b_star <= set(part.clusters[f.successor(x)])


def test_assign_exceptional_respects_reservations():
    g, part, f, _ = _instance(v0=2, seed=2)
    ideals = reserve_ideals(g, part, f, EPS, D, seed=2)
    assign = assign_exceptional(g, part, ideals, seed=2)
    assert len(assign.entries) == 2
    used = assign.used_vertices()
    assert len(used) == 4  # all four picks distinct
    cluster_of = part.cluster_of()
    for e in assign.entries:
        assert g.has_edge(e.x_minus, e.x)
        assert g.has_edge(e.x, e.x_plus)
        assert cluster_of[e.x_minus] == e.x_cluster
        assert cluster_of[e.x_plus] == e.y_cluster
        assert e.x_minus not in ideals.star[e.x_cluster]
        assert e.x_plus not in ideals.star[e.y_cluster]


def test_build_walk_balance_and_coverage():
    g, part, f, r0 = _instance(v0=2, seed=3)
    ideals = reserve_ideals(g, part, f, EPS, D, seed=3)
    assign = assign_exceptional(g, part, ideals, seed=3)
    walk = build_walk(r0, f, assign, part, ETA)
    counts = walk.visit_counts()
    assert all(counts[x] >= 1 for x in range(part.k))
    for cycle in f.cycles:
        assert len({counts[x] for x in cycle}) == 1


def test_build_walk_wrong_pipeline_gate():
    # a directed cycle template is only 1-connected after the shift
    k = 8
    r0 = Digraph.directed_cycle(k)
    f0 = OneFactor.from_cycles(k, [list(range(k))])
    g, part, f = gen_blowup(r0, f0, 6, Fraction(9, 10), v0_count=0, seed=0)
    ideals = reserve_ideals(g, part, f, EPS, Fraction(2, 5), seed=0)
    assign = assign_exceptional(g, part, ideals, seed=0)
    with pytest.raises(WrongPipelineError):
        build_walk(r0, f, assign, part, ETA)


def test_fix_edges_realizes_every_walk_edge():
    g, part, f, r0 = _instance(v0=1, seed=4)
    ideals = reserve_ideals(g, part, f, EPS, D, seed=4)
    assign = assign_exceptional(g, part, ideals, seed=4)
    walk = build_walk(r0, f, assign, part, ETA)
    asm = fix_edges(g, part, walk, ideals, seed=4)
    asm.ledger.validate(f)
    for u, v in asm.fixed_succ.items():
        assert g.has_edge(u, v)
    # the realized non-exceptional edges match the cluster-level demand
    cluster_of = part.cluster_of()
    v0 = set(part.v0)
    realized = Counter(
        (cluster_of[u], cluster_of[v])
        for u, v in asm.fixed_succ.items()
        if u not in v0 and v not in v0
    )
    assert realized == Counter(walk.connection_edges())


def test_complete_factor_extends_fixed_edges():
    g, part, f, r0 = _instance(v0=1, seed=5)
    ideals = reserve_ideals(g, part, f, EPS, D, seed=5)
    assign = assign_exceptional(g, part, ideals, seed=5)
    walk = build_walk(r0, f, assign, part, ETA)
    asm = fix_edges(g, part, walk, ideals, seed=5)
    factor = complete_factor(g, part, f, asm, seed=5)
    assert sorted(factor.succ) == list(range(g.n))  # a permutation
    for u, v in asm.fixed_succ.items():
        assert factor.successor(u) == v


def test_merge_coarsens_and_unifies():
    """Each merge step keeps the co-cyclicity partition a coarsening of
    the previous one, checked by exhaustive recount."""
    g, part, f, r0 = _instance(v0=1, seed=6)
    ideals = reserve_ideals(g, part, f, EPS, D, seed=6)
    assign = assign_exceptional(g, part, ideals, seed=6)
    walk = build_walk(r0, f, assign, part, ETA)
    asm = fix_edges(g, part, walk, ideals, seed=6)
    factor = complete_factor(g, part, f, asm, seed=6)
    for cycle in f.cycles:
        for u_idx in cycle:
            before = [frozenset(c) for c in factor.cycles]
            factor = merge_at_cluster(factor, u_idx, part, f, asm, g)
            after = {frozenset(c) for c in factor.cycles}
            for cls in before:
                assert any(cls <= new for new in after)
            # all residual vertices on the merged factor edge are co-cyclic
            pred = f.predecessor(u_idx)
            pool = [
                v
                for v in part.clusters[pred] + part.clusters[u_idx]
                if v not in asm.ledger.exit[pred]
                and v not in asm.ledger.entry[u_idx]
            ]
            assert len({factor.cycle_of[v] for v in pool}) == 1
    assert len(factor.cycles) == 1


def test_full_pipeline_produces_verified_certificate():
    for seed in range(3):
        g, part, f, r0 = _instance(v0=(seed % 3), seed=10 + seed)
        cert = assemble_hamilton(g, part, f, r0, ETA, EPS, D, seed=seed)
        assert verify_hamilton_cycle(g, cert)


def test_short_factor_cycle_rejected():
    g, part, f, r0 = _instance(seed=0)
    bad = OneFactor.from_cycles(8, [[0, 1, 2], [3, 4, 5, 6, 7]])
    with pytest.raises(ParameterError):
        assemble_hamilton(g, part, bad, r0, ETA, EPS, D)


@pytest.mark.parametrize("which", ["factor", "reduced"])
def test_size_mismatch_rejected(which):
    """A factor or reduced digraph not on the partition's clusters is a
    ParameterError naming the sizes, not an IndexError deep inside."""
    g, part, f, r0 = _instance(seed=0)
    small = OneFactor.from_cycles(4, [[0, 1, 2, 3]])
    if which == "factor":
        f = small
    else:
        r0 = Digraph.complete(4)
    with pytest.raises(ParameterError, match=r"4 .*8"):
        assemble_hamilton(g, part, f, r0, ETA, EPS, D)
