"""Shared brute-force reference implementations for the test suite.

Everything here is deliberately naive; the point is independence from
the package's own algorithms.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from hamlab import BipartiteGraph, Digraph


def random_digraph(n: int, p: float, seed: int) -> Digraph:
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    return Digraph(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(mask))])


def random_bipartite(na: int, nb: int, p: float, seed: int) -> BipartiteGraph:
    rng = np.random.default_rng(seed)
    edges = [
        (i, j) for i in range(na) for j in range(nb) if rng.random() < p
    ]
    return BipartiteGraph.from_edges(na, nb, edges)


def brute_max_matching(b: BipartiteGraph) -> int:
    """Exponential branch-and-bound maximum matching size."""
    adj = b.adj()

    def rec(i: int, used: frozenset) -> int:
        if i == b.a_size:
            return 0
        best = rec(i + 1, used)
        for j in adj[i]:
            if j not in used:
                best = max(best, 1 + rec(i + 1, used | {j}))
        return best

    return rec(0, frozenset())


def covers_all_edges(b: BipartiteGraph, a_side, b_side) -> bool:
    return all(u in a_side or v in b_side for u, v in b.edges)


def exhaustive_hall_factor_exists(g: Digraph) -> bool:
    """A 1-factor exists iff |N+(S)| >= |S| for every vertex subset S."""
    n = g.n
    out_mask = [0] * n
    for u in range(n):
        for v in g.out_adj[u]:
            out_mask[u] |= 1 << v
    for s in range(1, 1 << n):
        nbrs = 0
        rest = s
        while rest:
            low = rest & -rest
            nbrs |= out_mask[low.bit_length() - 1]
            rest ^= low
        if bin(nbrs).count("1") < bin(s).count("1"):
            return False
    return True


def brute_vertex_menger(g: Digraph, x: int, y: int) -> int:
    """Minimum x-y separator size by exhaustive subset search (small n)."""
    if g.has_edge(x, y):
        raise ValueError("undefined for adjacent pairs")
    others = [v for v in range(g.n) if v not in (x, y)]

    def reaches(removed: set[int]) -> bool:
        seen = {x}
        stack = [x]
        while stack:
            u = stack.pop()
            for v in g.out_adj[u]:
                if v == y:
                    return True
                if v not in removed and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return False

    for size in range(len(others) + 1):
        for sub in combinations(others, size):
            if not reaches(set(sub)):
                return size
    return len(others)


def brute_regular(p, eps) -> bool:
    """Exhaustive eps-regularity check straight from the definition."""
    from fractions import Fraction

    from hamlab.regular_pairs import density

    eps = Fraction(eps)
    base = density(p)
    a, b = p.a, p.b
    min_a = eps * len(a)
    min_b = eps * len(b)
    b_sets = {v: p.host.out_sets[v] for v in a}
    for xa in range(1, len(a) + 1):
        if Fraction(xa) < min_a:
            continue
        for xs in combinations(a, xa):
            for yb in range(1, len(b) + 1):
                if Fraction(yb) < min_b:
                    continue
                for ys in combinations(b, yb):
                    ys_set = set(ys)
                    cnt = sum(len(b_sets[u] & ys_set) for u in xs)
                    if abs(Fraction(cnt, xa * yb) - base) >= eps:
                        return False
    return True


def reference_exhaustive_regularity(p, eps):
    """The exhaustive audit as a loop over row subsets in exact rationals.

    For each row subset X in ascending bitmask order, the densest and the
    sparsest Y of every size come from the column counts sorted in
    descending order (stable). A strictly larger deviation replaces the
    current worst, so the first worst (X, |Y|) in scan order is reported.
    """
    from fractions import Fraction
    from math import ceil

    from hamlab.regular_pairs import RegularityVerdict, density

    eps = Fraction(eps)
    na, nb = len(p.a), len(p.b)
    dens = density(p)
    mat = p.adjacency_matrix()
    min_x = max(1, ceil(eps * na))
    min_y = max(1, ceil(eps * nb))
    worst = Fraction(0)
    witness = None
    for x_mask in range(1, 1 << na):
        rows = [i for i in range(na) if x_mask & (1 << i)]
        sx = len(rows)
        if sx < min_x:
            continue
        col_counts = mat[rows].sum(axis=0)
        order = np.argsort(-col_counts, kind="stable")
        prefix = np.concatenate(([0], np.cumsum(col_counts[order])))
        total = int(prefix[-1])
        for sy in range(min_y, nb + 1):
            hi = Fraction(int(prefix[sy]), sx * sy)  # densest Y of size sy
            lo = Fraction(total - int(prefix[nb - sy]), sx * sy)  # sparsest
            dev = max(hi - dens, dens - lo)
            if dev > worst:
                worst = dev
                if hi - dens >= dens - lo:
                    y_cols = [int(c) for c in order[:sy]]
                else:
                    y_cols = [int(c) for c in order[nb - sy:]]
                witness = {
                    "x": [p.a[i] for i in rows],
                    "y": [p.b[j] for j in sorted(y_cols)],
                    "deviation": str(dev),
                }
    regular = worst < eps
    return RegularityVerdict("exhaustive", regular, worst, None if regular else witness)
