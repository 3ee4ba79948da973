"""Regularity certification, pair surgery, and the concentration audit."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlab import ContractError, Digraph, OneFactor, ParameterError, SearchFailureError
from hamlab.regular_pairs import (
    ClusterPartition,
    Pair,
    build_reduced,
    certify_regular,
    certify_super_regular,
    chernoff_audit,
    cluster_pair,
    density,
    hamilton_in_super_regular,
    make_super_regular,
    prune_atypical,
    regular_pair_matching,
    sample_hypergeometric,
    select_ideal,
)
from helpers import brute_regular, reference_exhaustive_regularity


def _random_host(na, nb, p, seed):
    """A digraph with random edges from 0..na-1 to na..na+nb-1, and that pair."""
    rng = np.random.default_rng(seed)
    a = tuple(range(na))
    b = tuple(range(na, na + nb))
    edges = [(u, v) for u in a for v in b if rng.random() < p]
    host = Digraph(na + nb, edges)
    return host, Pair.of(host, a, b)


def _random_pair(na, nb, p, seed):
    return _random_host(na, nb, p, seed)[1]


def test_density_exact():
    p = _random_pair(4, 5, 1.0, 0)
    assert density(p) == 1
    host = Digraph(4, [(0, 2), (1, 3), (2, 1)])
    p2 = Pair.of(host, (0, 1), (2, 3))
    assert density(p2) == Fraction(1, 2)
    assert p2.mat.tolist() == [[1, 0], [0, 1]]  # the B -> A edge (2, 1) is not in it


def test_pair_of_reads_every_edge():
    host, p = _random_host(5, 7, 0.5, 11)
    assert p.mat.tolist() == [[int(host.has_edge(u, v)) for v in p.b] for u in p.a]
    assert not p.mat.flags.writeable


def test_pair_requires_disjoint_sides():
    host = Digraph(4, [])
    with pytest.raises(ParameterError):
        Pair.of(host, (0, 1), (1, 2))


def test_pair_checks_range_and_shape():
    with pytest.raises(ParameterError):
        Pair.of(Digraph(4, []), (0, 1), (2, 4))  # vertex 4 not in the digraph
    with pytest.raises(ParameterError):
        Pair((0, 1), (2, 3), np.zeros((2, 3)))


def test_exhaustive_certifier_matches_definition():
    """The prefix-sum certifier agrees with the brute-force definition."""
    for seed in range(12):
        p = _random_pair(5, 5, 0.5, seed)
        for eps in (Fraction(1, 3), Fraction(1, 2)):
            verdict = certify_regular(p, eps, mode="exhaustive")
            assert verdict.regular == brute_regular(p, eps), (seed, eps)


def _pair_from_mask(mask):
    na, nb = mask.shape
    a = tuple(range(na))
    b = tuple(range(na, na + nb))
    return Pair(a, b, mask)


def _audit_corpus():
    """Seeded adjacency masks: 12x12, unequal sides, sides of 1, and
    variants with empty rows and with rows that miss half of B."""
    rng = np.random.default_rng(44)
    shapes = [(12, 12), (12, 12), (3, 11), (12, 5), (7, 2), (1, 12), (12, 1),
              (1, 1), (5, 9), (9, 4)]
    for na, nb in shapes:
        mask = rng.random((na, nb)) < rng.uniform(0.2, 0.95)
        yield mask
        empty_rows = mask.copy()
        empty_rows[: (na + 1) // 2] = False
        yield empty_rows
        half_rows = mask.copy()
        half_rows[:, nb // 2:] = False
        yield half_rows


@pytest.mark.parametrize(
    "eps", [Fraction(1, 10), Fraction(1, 3), Fraction(2, 5)], ids=str
)
def test_exhaustive_audit_equals_reference_loop(eps):
    """The batched integer audit returns the verdict of the rational loop
    over row subsets, worst deviation and witness included."""
    outcomes = set()
    for mask in _audit_corpus():
        p = _pair_from_mask(mask)
        verdict = certify_regular(p, eps, mode="exhaustive")
        assert verdict == reference_exhaustive_regularity(p, eps), mask.tolist()
        outcomes.add(verdict.regular)
    assert outcomes == {True, False}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
    st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)]),
)
def test_exhaustive_audit_matches_definition_small(na, nb, p, seed, eps):
    host, pair = _random_host(na, nb, p, seed)
    verdict = certify_regular(pair, eps, mode="exhaustive")
    assert verdict.regular == brute_regular(pair, eps)
    if not verdict.regular:
        x, y = verdict.witness["x"], verdict.witness["y"]
        cnt = sum(1 for u in x for v in y if host.has_edge(u, v))
        dev = abs(Fraction(cnt, len(x) * len(y)) - density(pair))
        assert dev == verdict.worst_deviation


def test_exhaustive_witness_reverifies():
    host, p = _random_host(6, 6, 0.5, 3)
    verdict = certify_regular(p, Fraction(1, 4), mode="exhaustive")
    if not verdict.regular:
        w = verdict.witness
        x, y = w["x"], w["y"]
        cnt = sum(1 for u in x for v in y if host.has_edge(u, v))
        dev = abs(Fraction(cnt, len(x) * len(y)) - density(p))
        assert dev >= Fraction(1, 4)
        assert dev == verdict.worst_deviation


def test_sampled_mode_is_one_sided():
    # a certified-regular verdict from sampling can be wrong, but a
    # reported violation is always a real one
    host, p = _random_host(30, 30, 0.5, 0)
    verdict = certify_regular(p, Fraction(1, 20), mode="sampled", samples=300, seed=1)
    if not verdict.regular:
        w = verdict.witness
        x, y = w["x"], w["y"]
        cnt = sum(1 for u in x for v in y if host.has_edge(u, v))
        assert abs(Fraction(cnt, len(x) * len(y)) - density(p)) >= Fraction(1, 20)


def test_exhaustive_cap():
    from hamlab import ScaleError

    p = _random_pair(13, 13, 0.5, 0)
    with pytest.raises(ScaleError):
        certify_regular(p, Fraction(1, 4), mode="exhaustive")


def test_super_regular_vertex_floors():
    # one isolated A-vertex breaks the floor instantly
    host = Digraph(8, [(u, v) for u in range(1, 4) for v in range(4, 8)])
    p = Pair.of(host, (0, 1, 2, 3), (4, 5, 6, 7))
    verdict = certify_super_regular(p, Fraction(1, 2), Fraction(1, 4))
    assert not verdict.regular
    assert verdict.witness == {"vertex": 0, "side": "a", "degree": 0, "floor": "1"}
    # B-vertex 7 keeps 2 in-neighbours of 4: below a floor of 9/4, not of 2
    host = Digraph(8, [(u, v) for u in range(4) for v in range(4, 8)
                       if (u, v) not in ((0, 7), (1, 7))])
    p = Pair.of(host, (0, 1, 2, 3), (4, 5, 6, 7))
    verdict = certify_super_regular(p, Fraction(1, 2), Fraction(9, 16))
    assert verdict.witness == {"vertex": 7, "side": "b", "degree": 2, "floor": "9/4"}
    assert certify_super_regular(p, Fraction(1, 2), Fraction(1, 2)).regular


def test_regular_pair_matching_near_perfect_and_perfect():
    p = _random_pair(32, 32, 0.6, 5)
    m = regular_pair_matching(p, Fraction(1, 4))
    assert m.size() >= math.ceil(0.75 * 32)
    full = _random_pair(16, 16, 1.0, 0)
    assert regular_pair_matching(full, Fraction(1, 4), super_regular=True).size() == 16


def test_regular_pair_matching_contract_violation():
    host = Digraph(8, [])  # empty pair cannot be regular; matching is 0
    p = Pair.of(host, (0, 1, 2, 3), (4, 5, 6, 7))
    with pytest.raises(ContractError):
        regular_pair_matching(p, Fraction(1, 4))


def test_select_ideal_floors_hold():
    host, p = _random_host(12, 12, 0.8, 7)
    theta, d = Fraction(1, 3), Fraction(2, 5)
    a_star, b_star = select_ideal(p, theta, Fraction(1, 4), d, seed=0)
    size = math.ceil(theta * 12)
    assert len(a_star) == size and len(b_star) == size
    floor = theta * d * 12 / 4
    for u in p.a:
        assert len(host.out_sets[u] & b_star) >= floor
    for v in p.b:
        assert len(host.in_sets[v] & a_star) >= floor


def test_hamilton_in_super_regular_exact_and_heuristic():
    g = Digraph.complete(10)
    cert = hamilton_in_super_regular(g, Fraction(1, 4), Fraction(1, 2), seed=0)
    assert cert is not None
    rng = np.random.default_rng(0)
    n = 30  # above the exact cap: exercises the insertion heuristic
    mask = rng.random((n, n)) < 0.7
    np.fill_diagonal(mask, False)
    g2 = Digraph(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(mask))])
    cert2 = hamilton_in_super_regular(g2, Fraction(1, 4), Fraction(1, 2), seed=0)
    from hamlab import verify_hamilton_cycle

    assert verify_hamilton_cycle(g2, cert2)


def test_hamilton_in_super_regular_restart_budget_is_deterministic():
    rng = np.random.default_rng(1)
    n = 40
    mask = rng.random((n, n)) < 0.6
    np.fill_diagonal(mask, False)
    g = Digraph(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(mask))])
    eps, d = Fraction(1, 4), Fraction(1, 2)
    first = hamilton_in_super_regular(g, eps, d, seed=7)
    assert hamilton_in_super_regular(g, eps, d, seed=7) == first
    with pytest.raises(SearchFailureError):
        hamilton_in_super_regular(g, eps, d, restarts=0, seed=7)


def _blowup_partition(k, m, p, seed):
    rng = np.random.default_rng(seed)
    clusters = tuple(tuple(range(i * m, (i + 1) * m)) for i in range(k))
    edges = []
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            for u in clusters[i]:
                for v in clusters[j]:
                    if rng.random() < p:
                        edges.append((u, v))
    return Digraph(k * m, edges), ClusterPartition((), clusters)


def test_build_reduced_and_cluster_pair():
    g, part = _blowup_partition(4, 8, 0.8, 1)
    r = build_reduced(g, part, Fraction(2, 5), Fraction(2, 5), seed=0)
    assert r.k == 4
    for i, j in r.base.edges():
        assert r.density_of(i, j) >= Fraction(2, 5)
        pair = cluster_pair(g, part, i, j)
        assert density(pair) == r.density_of(i, j)


def test_make_super_regular_moves_quota():
    g, part = _blowup_partition(4, 10, 0.8, 3)
    r = build_reduced(g, part, Fraction(2, 5), Fraction(2, 5), seed=0)
    h = r.base
    eps = Fraction(1, 12)  # Delta = 6 on the complete reduced digraph
    new_part = make_super_regular(g, part, r, h, eps, Fraction(2, 5))
    delta = max(h.out_degree(i) + h.in_degree(i) for i in range(4))
    quota = math.ceil(delta * eps * 10)
    assert all(len(c) == 10 - quota for c in new_part.clusters)
    assert len(new_part.v0) == 4 * quota


def test_prune_atypical_quota_exact():
    g, part = _blowup_partition(4, 10, 0.9, 5)
    r = build_reduced(g, part, Fraction(2, 5), Fraction(2, 5), seed=0)
    eps = Fraction(1, 3200)
    new_part = prune_atypical(g, part, r, eps, Fraction(2, 5))
    quota = math.ceil(16 * math.sqrt(1 / 3200) * 10)  # = 3
    # exact integer arithmetic must agree with the float formula here
    assert all(len(c) == 10 - quota for c in new_part.clusters)


def test_hypergeometric_bounds():
    x = sample_hypergeometric(100, 30, 20, seed=0)
    assert 0 <= x <= 20
    with pytest.raises(ParameterError):
        sample_hypergeometric(10, 20, 5)


def test_chernoff_audit_rejects_bad_a():
    with pytest.raises(ParameterError):
        chernoff_audit(100, 30, 20, 10, Fraction(3, 2))
    with pytest.raises(ParameterError):
        chernoff_audit(100, 30, 20, 10, 0)


def test_chernoff_audit_small():
    emp, bound = chernoff_audit(1000, 300, 200, 2000, Fraction(1, 2), seed=0)
    assert 0 <= emp <= 1
    assert emp <= bound


@pytest.mark.parametrize(
    "field, text",
    [
        ("v0", '{"v0": [4.9], "clusters": [[0, 1], [2, 3]]}'),
        ("clusters", '{"v0": [], "clusters": [[0, 1], [2.2, 3]]}'),
        ("string", '{"v0": ["4"], "clusters": [[0, 1], [2, 3]]}'),
        ("bool", '{"v0": [], "clusters": [[0, true], [2, 3]]}'),
    ],
)
def test_partition_json_labels_are_strict(field, text):
    """A float, string or bool label is rejected by name, never cast."""
    with pytest.raises(ParameterError, match="^vertex label .* is not an integer$"):
        ClusterPartition.from_json(text)
    good = ClusterPartition.from_json('{"v0": [4], "clusters": [[0, 1], [2, 3]]}')
    assert good == ClusterPartition((4,), ((0, 1), (2, 3)))
