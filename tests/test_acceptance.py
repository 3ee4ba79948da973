"""End-to-end acceptance suite.

One test per headline guarantee, at the stated scales and tolerances.
These are slower than the unit suites and exercise the package surface
the way a campaign would.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hamlab import (
    Digraph,
    OneFactor,
    brute_force_hamiltonian,
    check_nash_williams_chvatal,
    check_semi_exact,
    degree_sequences,
    find_one_factor,
    gen_extremal_chvatal,
    is_strongly_connected,
    max_matching,
    min_cover,
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
from hamlab.cycle_cover import cover_by_cycles, verify_inherited_degrees
from hamlab.generators import gen_blowup, gen_random_condition
from hamlab.regular_pairs import Pair, chernoff_audit, regular_pair_matching
from hamlab.shifted_walks import disjoint_shifted_walks
from helpers import (
    covers_all_edges,
    exhaustive_hall_factor_exists,
    random_bipartite,
    random_digraph,
)


def test_criterion_1_koenig_equality_500_graphs_under_5s():
    """Matching number equals cover number on 500 random bipartite graphs."""
    start = time.monotonic()
    rng = np.random.default_rng(0)
    for trial in range(500):
        na = int(rng.integers(1, 21))
        nb = int(rng.integers(1, 41 - na))
        p = (0.1, 0.3, 0.7)[trial % 3]
        b = random_bipartite(na, nb, p, trial)
        matching = max_matching(b)
        cover = min_cover(b)
        assert matching.size() == cover.size(), trial
        assert covers_all_edges(b, cover.a_side, cover.b_side), trial
    assert time.monotonic() - start < 5.0


def test_criterion_2_one_factor_dichotomy_500_digraphs_under_30s():
    """find_one_factor agrees with the exhaustive Hall test on 500 digraphs."""
    start = time.monotonic()
    rng = np.random.default_rng(1)
    for trial in range(500):
        n = int(rng.integers(2, 13))
        p = 0.1 + 0.8 * float(rng.random())
        g = random_digraph(n, p, 10_000 + trial)
        cert = find_one_factor(g)
        want = exhaustive_hall_factor_exists(g)
        assert (cert.factor is not None) == want, (n, trial)
        if cert.factor is None:
            s = cert.violator
            nout = set()
            for v in s:
                nout |= g.out_sets[v]
            assert len(nout) < len(s), trial
    assert time.monotonic() - start < 30.0


def test_criterion_3_extremal_family_structure():
    """The extremal family has the exact closed-form degree profile and
    fails the degree condition at exactly index k, for every 6<=n<=18."""
    for n in range(6, 19):
        for k in range(1, (n - 1) // 2 + 1):
            if 2 * k >= n:
                continue
            g = gen_extremal_chvatal(n, k)
            assert is_strongly_connected(g), (n, k)
            assert brute_force_hamiltonian(g) is None, (n, k)
            expected = tuple(
                sorted([k] * k + [n - 1 - k] * (n - 2 * k) + [n - 1] * k)
            )
            seqs = degree_sequences(g)
            assert seqs.out_sorted == expected, (n, k)
            assert seqs.in_sorted == expected, (n, k)
            report = check_nash_williams_chvatal(g)
            assert not report.holds and report.first_violation == k, (n, k)


def _shuffled_obstruction(k, s, seed):
    """Independent block of size k/2+s, complete elsewhere, relabelled."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(k)
    a = set(perm[: k // 2 + s].tolist())
    edges = [
        (u, v)
        for u in range(k)
        for v in range(k)
        if u != v and not (u in a and v in a)
    ]
    return Digraph(k, edges)


def test_criterion_4_cycle_cover_k400_bounded_waste():
    """50 reduced digraphs at k=400, d=1/400: degree inheritance holds,
    cover waste stays below 7*sqrt(d)*k = 140, every iteration keeps the
    endpoint invariant, and each run finishes within 10 seconds."""
    k, d = 400, Fraction(1, 400)
    waste_cap = 140
    instances = [random_digraph(k, 0.6, seed) for seed in range(40)]
    instances += [
        _shuffled_obstruction(k, s, seed) for s in (1, 2) for seed in range(5)
    ]
    assert len(instances) == 50
    for idx, r in enumerate(instances):
        assert verify_inherited_degrees(r, d, Fraction(1, 4)).holds, idx
        start = time.monotonic()
        res = cover_by_cycles(r, d, seed=idx)
        assert time.monotonic() - start < 10.0, idx
        assert len(res.waste) <= waste_cap, (idx, len(res.waste))
        covered = [v for c in res.cycles for v in c]
        assert len(covered) == len(set(covered))
        assert len(covered) + len(res.waste) == k
        for c in res.cycles:
            assert all(r.has_edge(c[i], c[(i + 1) % len(c)]) for i in range(len(c)))
        assert all(rec["endpoints_ok"] for rec in res.trace), idx


def _random_halfdense_pair(n, seed):
    rng = np.random.default_rng(seed)
    a = tuple(range(n))
    b = tuple(range(n, 2 * n))
    edges = [(u, v) for u in a for v in b if rng.random() < 0.5]
    return Pair.of(Digraph(2 * n, edges), a, b)


def test_criterion_5_regular_pair_matchings():
    """100 half-dense 64x64 pairs admit matchings of size >= 48 under the
    (1/4)-regular routine; 100 more reach perfect under the super-regular
    routine."""
    n = 64
    for seed in range(100):
        pair = _random_halfdense_pair(n, seed)
        m = regular_pair_matching(pair, Fraction(1, 4))
        assert m.size() >= 48, seed
    for seed in range(100, 200):
        pair = _random_halfdense_pair(n, seed)
        m = regular_pair_matching(pair, Fraction(1, 4), super_regular=True)
        assert m.size() == n, seed


def test_criterion_6_disjoint_shifted_walks():
    """50 dense (digraph, factor) instances with k<=40: at least
    ceil(c^2 k/16) shifted walks, each across at most 2/c cycles, with
    pairwise disjoint internal clusters."""
    rng = np.random.default_rng(6)
    for trial in range(50):
        k = 2 * int(rng.integers(10, 21))  # even, 20..40
        c = Fraction(1, 5) if trial % 2 else Fraction(2, 5)
        r = random_digraph(k, 0.9, 600 + trial)
        f = OneFactor.from_cycles(k, [list(range(k // 2)), list(range(k // 2, k))])
        walks = disjoint_shifted_walks(r, f, 0, k // 2, c)
        assert len(walks) >= math.ceil(c * c * k / 16), trial
        seen = set()
        for w in walks:
            w.validate(r)
            assert Fraction(w.t) <= 2 / c, trial
            internal = w.internal_clusters()
            assert not (internal & seen), trial
            seen |= internal


def test_criterion_7_merges_coarsen_and_unify():
    """>=100 merge configurations on dense clustered instances (m <= 10):
    each merge leaves the residual pair co-cyclic and only coarsens the
    co-cyclicity partition, checked by exhaustive recount."""
    eta, eps, d = Fraction(1, 4), Fraction(2, 5), Fraction(7, 20)
    merges_checked = 0
    for inst in range(13):
        m = (8, 10, 10)[inst % 3]
        r0 = Digraph.complete(8)
        f0 = OneFactor.from_cycles(8, [list(range(0, 4)), list(range(4, 8))])
        g, part, f = gen_blowup(
            r0, f0, m, Fraction(17, 20), v0_count=inst % 2, seed=700 + inst
        )
        ideals = reserve_ideals(g, part, f, eps, d, seed=inst)
        assign = assign_exceptional(g, part, ideals, seed=inst)
        walk = build_walk(r0, f, assign, part, eta)
        asm = fix_edges(g, part, walk, ideals, seed=inst)
        factor = complete_factor(g, part, f, asm, seed=inst)
        for cycle in f.cycles:
            for u_idx in cycle:
                before = [frozenset(c) for c in factor.cycles]
                factor = merge_at_cluster(factor, u_idx, part, f, asm, g)
                after = {frozenset(c) for c in factor.cycles}
                for cls in before:
                    assert any(cls <= new for new in after), (inst, u_idx)
                pred = f.predecessor(u_idx)
                pool = [
                    v
                    for v in part.clusters[pred] + part.clusters[u_idx]
                    if v not in asm.ledger.exit[pred]
                    and v not in asm.ledger.entry[u_idx]
                ]
                assert len({factor.cycle_of[v] for v in pool}) == 1, (inst, u_idx)
                merges_checked += 1
        assert len(factor.cycles) == 1, inst
    assert merges_checked >= 100


def test_criterion_8_full_assembly_20_blowups_under_30s_each():
    """20 blow-up instances (k in {8,12}, 4-cycle factors, m in {10,12},
    density >= 0.7, at most 2 exceptional vertices) all reach a verified
    Hamilton cycle, each within 30 seconds."""
    eta, eps = Fraction(1, 4), Fraction(2, 5)
    for trial in range(20):
        k = 8 if trial % 2 == 0 else 12
        m = 10 if trial % 4 < 2 else 12
        density = Fraction(7, 10) if trial % 3 else Fraction(4, 5)
        v0 = trial % 3
        r0 = Digraph.complete(k)
        f0 = OneFactor.from_cycles(
            k, [list(range(i, i + 4)) for i in range(0, k, 4)]
        )
        g, part, f = gen_blowup(r0, f0, m, density, v0_count=v0, seed=800 + trial)
        start = time.monotonic()
        cert = assemble_hamilton(g, part, f, r0, eta, eps, density / 2, seed=trial)
        assert time.monotonic() - start < 30.0, trial
        assert verify_hamilton_cycle(g, cert), trial


def test_criterion_9_chernoff_tail_bound():
    """10^5 hypergeometric draws from (1000, 300, 200): the empirical
    upper tail stays below 2*exp(-a^2 * 60 / 3) for each tested a."""
    mean = Fraction(200 * 300, 1000)  # = 60
    for a in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
        emp, bound = chernoff_audit(1000, 300, 200, 100_000, a, seed=9)
        assert bound == pytest.approx(2 * math.exp(-float(a * a * mean) / 3))
        assert emp <= bound, a


def test_criterion_10_conditioned_instances_exploratory():
    """Exploratory sweep, reported rather than gated: 200 digraphs passing
    the semi-exact condition at beta=1/4, with the exact oracle run on
    each. Non-Hamiltonian outcomes are findings, not failures."""
    beta = Fraction(1, 4)
    rng = np.random.default_rng(10)
    findings = []
    for trial in range(200):
        n = int(rng.integers(12, 19))
        g = gen_random_condition(n, beta, seed=trial)
        assert check_semi_exact(g, beta).holds, trial
        if brute_force_hamiltonian(g) is None:
            findings.append({"trial": trial, "n": n, "seed": trial})
    if findings:
        print(f"\nfindings: {len(findings)} non-Hamiltonian instances: {findings}")
    else:
        print("\nfindings: none; all 200 conditioned instances Hamiltonian")
