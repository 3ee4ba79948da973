"""Degree inheritance, expansion, path/cycle partition, active-path cover."""

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hamlab import ContractError, Digraph, HamlabError, ParameterError, ScaleError
from hamlab.cycle_cover import (
    PathCyclePartition,
    check_outexpansion,
    cover_by_cycles,
    large_degree_census,
    partition_cycles_paths,
    verify_inherited_degrees,
)
from helpers import random_digraph, reference_inherited_degrees


def brute_outexpansion_violator(r, d):
    """Reference implementation straight from the size-window definition."""
    d = Fraction(d)
    k = r.n
    lo = (Fraction(1, 2) - 2 * d) * k
    hi = (Fraction(1, 2) + 2 * d) * k
    for size in range(1, k + 1):
        if not (Fraction(size) <= lo or Fraction(size) > hi):
            continue
        for sub in combinations(range(k), size):
            nout = set()
            nin = set()
            for v in sub:
                nout |= r.out_sets[v]
                nin |= r.in_sets[v]
            if len(nout) < size or len(nin) < size:
                return True
    return False


def test_outexpansion_matches_brute_force():
    for seed in range(30):
        r = random_digraph(8, 0.35, seed)
        got = check_outexpansion(r, Fraction(1, 50))
        want = brute_outexpansion_violator(r, Fraction(1, 50))
        assert (got is not None) == want, seed
        if got is not None:
            nout = set()
            nin = set()
            for v in got:
                nout |= r.out_sets[v]
                nin |= r.in_sets[v]
            assert len(nout) < len(got) or len(nin) < len(got)


def test_outexpansion_scale_cap():
    with pytest.raises(ScaleError):
        check_outexpansion(Digraph(23, []), Fraction(1, 100))


def test_outexpansion_complete_passes():
    assert check_outexpansion(Digraph.complete(10), Fraction(1, 100)) is None


def test_large_degree_census():
    assert large_degree_census(Digraph.complete(10), Fraction(1, 100)) == (10, 10)
    assert large_degree_census(Digraph.directed_cycle(10), Fraction(1, 100)) == (0, 0)


def _obstruction(k, s):
    """A-block of size k/2+s with no internal edges; everything else complete."""
    a = set(range(k // 2 + s))
    edges = []
    for u in range(k):
        for v in range(k):
            if u == v or (u in a and v in a):
                continue
            edges.append((u, v))
    return Digraph(k, edges)


def test_inherited_degrees_r_only_clauses():
    k = 40
    d, beta = Fraction(1, 40), Fraction(1, 4)
    rep = verify_inherited_degrees(Digraph.complete(k), d, beta)
    assert rep.holds
    assert {c.clause for c in rep.clauses} == {"iii", "iv", "v", "vi"}
    bad = verify_inherited_degrees(Digraph.directed_cycle(k), d, beta)
    assert not bad.holds
    assert not bad.clause("iii").holds


def test_inherited_degrees_host_clauses():
    from hamlab.regular_pairs import ClusterPartition

    k, m = 4, 6
    clusters = tuple(tuple(range(i * m, (i + 1) * m)) for i in range(k))
    part = ClusterPartition((), clusters)
    # complete k-partite host: no intra-cluster edges, d+(G) = (k-1)m
    cluster_of = {v: i for i, c in enumerate(clusters) for v in c}
    g = Digraph(
        k * m,
        [
            (u, v)
            for u in range(k * m)
            for v in range(k * m)
            if cluster_of[u] != cluster_of[v]
        ],
    )
    r = Digraph.complete(k)
    rep = verify_inherited_degrees(r, Fraction(1, 100), Fraction(1, 4), g=g, part=part)
    assert rep.clause("i").holds and rep.clause("ii").holds


def test_partition_cycles_paths_validates():
    r = _obstruction(40, 1)
    d = Fraction(1, 40)
    part = partition_cycles_paths(r, d)
    part.validate(r, d)
    assert len(part.paths) <= math.ceil(4 * float(d) * 40)


def test_partition_contract_error_when_too_lopsided():
    # A of size k/2 + s with s far beyond the q new vertices: no 1-factor
    r = _obstruction(20, 5)
    with pytest.raises(ContractError) as exc:
        partition_cycles_paths(r, Fraction(1, 400))
    assert exc.value.witness is not None


def _check_cover(r, d, seed=0):
    res = cover_by_cycles(r, d, seed=seed)
    k = r.n
    assert len(res.waste) ** 2 <= 49 * d * k * k  # |waste| <= 7*sqrt(d)*k
    covered = [v for c in res.cycles for v in c]
    assert len(covered) == len(set(covered))
    assert len(covered) + len(res.waste) == k
    for c in res.cycles:
        assert all(r.has_edge(c[i], c[(i + 1) % len(c)]) for i in range(len(c)))
    for rec in res.trace:
        assert rec["endpoints_ok"]
    return res


def test_cover_random_instances():
    for seed in range(5):
        r = random_digraph(80, 0.55, seed)
        _check_cover(r, Fraction(1, 80), seed=seed)


def test_cover_obstruction_instances():
    for s in (1, 2):
        r = _obstruction(80, s)
        _check_cover(r, Fraction(1, 80))


def test_cover_trace_schema_and_policies():
    r = _obstruction(60, 2)
    res = cover_by_cycles(r, Fraction(1, 60), seed=0)
    for rec in res.trace:
        assert {"case", "S", "alpha", "active", "waste_delta", "endpoints_ok"} <= set(rec)
    res2 = cover_by_cycles(r, Fraction(1, 60), seed=1, active_policy="random")
    assert len(res2.waste) ** 2 <= 49 * Fraction(1, 60) * 60 * 60


def test_cover_deterministic():
    r = _obstruction(60, 1)
    a = cover_by_cycles(r, Fraction(1, 60), seed=5)
    b = cover_by_cycles(r, Fraction(1, 60), seed=5)
    assert a.cycles == b.cycles and a.waste == b.waste and a.trace == b.trace


def _run(r, paths, waste=frozenset(), d=Fraction(1, 100)):
    init = PathCyclePartition((), tuple(paths), frozenset(waste))
    init.validate(r)
    return cover_by_cycles(r, d, seed=0, initial=init)


def test_case_1_waste_closes_cycle():
    r = Digraph(4, [(1, 2), (2, 3), (0, 1), (3, 0)])
    res = _run(r, [(1, 2, 3)], waste={0})
    assert [t["case"] for t in res.trace] == ["1"]
    assert res.cycles == ((0, 1, 2, 3),) and not res.waste


def test_case_2_insertion_into_cycle():
    r = Digraph.complete(60)
    res = _run(r, [tuple(range(0, 30)), tuple(range(30, 60))], d=Fraction(1, 600))
    cases = [t["case"] for t in res.trace]
    assert "2" in cases
    assert sum(len(c) for c in res.cycles) + len(res.waste) == 60


def test_case_3i_merges_two_paths():
    r = Digraph(7, [(0, 1), (1, 2), (3, 6), (6, 4), (4, 5), (0, 3), (5, 1), (2, 0)])
    res = _run(r, [(0, 1, 2), (3, 6, 4, 5)])
    assert [t["case"] for t in res.trace] == ["3i", "4iii"]
    assert res.cycles == ((0, 3, 6, 4, 5, 1, 2),) and not res.waste


def test_case_3ii_splits_active_path():
    r = Digraph.complete(60)
    res = _run(r, [tuple(range(60))], d=Fraction(1, 600))
    assert res.trace[0]["case"] == "3ii"


def test_case_4i_tail_merge():
    r = Digraph(8, [(i, i + 1) for i in range(4)] + [(5, 6), (6, 7), (7, 0), (4, 5)])
    res = _run(r, [(0, 1, 2, 3, 4), (5, 6, 7)])
    assert [t["case"] for t in res.trace] == ["4i", "4iii"]
    assert res.cycles == ((5, 6, 7, 0, 1, 2, 3, 4),)


def test_case_4ii_head_merge():
    r = Digraph(8, [(i, i + 1) for i in range(4)] + [(5, 6), (6, 7), (4, 5), (7, 1)])
    res = _run(r, [(0, 1, 2, 3, 4), (5, 6, 7)])
    assert [t["case"] for t in res.trace] == ["4ii", "4iv"]
    assert res.cycles == ((1, 2, 3, 4, 5, 6, 7),) and set(res.waste) == {0}


def test_case_4iii_prefix_cycle_with_tail_waste():
    r = Digraph(7, [(i, i + 1) for i in range(6)] + [(5, 0)])
    res = _run(r, [tuple(range(7))])
    assert [t["case"] for t in res.trace] == ["4iii"]
    assert res.cycles == ((0, 1, 2, 3, 4, 5),) and set(res.waste) == {6}


def test_case_4iv_suffix_cycle_with_head_waste():
    r = Digraph(7, [(i, i + 1) for i in range(6)] + [(6, 1)])
    res = _run(r, [tuple(range(7))])
    assert [t["case"] for t in res.trace] == ["4iv"]
    assert res.cycles == ((1, 2, 3, 4, 5, 6),) and set(res.waste) == {0}


def test_no_case_raises_contract_error():
    r = Digraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    init = PathCyclePartition((), ((0, 1, 2), (3, 4, 5)), frozenset())
    with pytest.raises(ContractError):
        cover_by_cycles(r, Fraction(1, 100), seed=0, initial=init)


def test_inherited_degrees_equal_fraction_reference():
    """Integer margins over one denominator give the Fraction loop's report:
    the same margins, verdicts and first-minimum witnesses."""
    from hamlab.regular_pairs import ClusterPartition

    outcomes = set()
    for seed in range(60):
        rng = np.random.default_rng([5, seed])
        k, m = int(rng.integers(1, 41)), int(rng.integers(1, 5))
        r = random_digraph(k, float(rng.uniform(0.05, 1.0)), seed)
        v0 = int(rng.integers(0, 3))
        g = random_digraph(k * m + v0, float(rng.uniform(0.05, 1.0)), seed + 100)
        part = ClusterPartition(
            tuple(range(k * m, k * m + v0)),
            tuple(tuple(range(i * m, (i + 1) * m)) for i in range(k)),
        )
        for d in (Fraction(1, 400), Fraction(1, 40), Fraction(1, 9), Fraction(1, 3), 0.01):
            for beta in (Fraction(1, 8), Fraction(1, 4), Fraction(2, 5), 1):
                for host in ((g, part), (None, None)):
                    got = verify_inherited_degrees(r, d, beta, *host)
                    want = reference_inherited_degrees(r, d, beta, *host)
                    assert got == want, (seed, d, beta)
                    for c in got.clauses:
                        assert type(c.margin) is Fraction
                        outcomes.add((c.clause, c.holds))
    assert len(outcomes) == 12  # every clause both holds and fails somewhere
    with pytest.raises(ParameterError):
        verify_inherited_degrees(Digraph(0, []), Fraction(1, 40), Fraction(1, 4))


def _cover_corpus():
    for seed in range(120):
        rng = np.random.default_rng([41, seed])
        k = int(rng.integers(1, 61))
        if seed % 3 == 2:
            block = rng.permutation(k)[: k // 2 + int(rng.integers(0, 3))]
            mask = np.ones((k, k), dtype=bool)
            mask[np.ix_(block, block)] = False
        else:
            mask = rng.random((k, k)) < rng.uniform(0.2, 0.95)
        np.fill_diagonal(mask, False)
        us, vs = np.nonzero(mask)
        edges = list(zip(us.tolist(), vs.tolist()))
        edges = [edges[i] for i in rng.permutation(len(edges))]
        d = (Fraction(1, 400), Fraction(1, 100), Fraction(1, 30), Fraction(1, 8))[seed % 4]
        yield Digraph(k, edges), d, seed


def test_partition_and_cover_output_pinned():
    """sha256 of partition_cycles_paths and cover_by_cycles (cycles, paths,
    waste, trace, or the error) on 120 digraphs with k <= 60, computed with
    the augmented digraph built edge by edge in Python. The corpus covers
    24 ContractErrors and the cover cases dump, 2, 3ii and 4iii."""
    digest = hashlib.sha256()
    for r, d, seed in _cover_corpus():
        try:
            p = partition_cycles_paths(r, d)
            rec = {"cycles": p.cycles, "paths": p.paths}
        except HamlabError as exc:
            rec = {"error": f"{type(exc).__name__}: {exc}"}
        try:
            c = cover_by_cycles(r, d, seed=seed)
            rec["cover"] = {
                "cycles": c.cycles, "waste": sorted(c.waste), "trace": c.trace
            }
        except HamlabError as exc:
            rec["cover"] = f"{type(exc).__name__}: {exc}"
        digest.update(json.dumps(rec, sort_keys=True, default=list).encode())
    assert digest.hexdigest() == (
        "4c169006b9f10f5b752b09d656b21ad4a5eab85c662a61400e85571a5f117dc2"
    )
