"""Shared brute-force reference implementations for the test suite.

The brute-force helpers are deliberately naive; the point is independence
from the package's own algorithms. The ``reference_*`` functions are the
package's simpler earlier implementations (an exact loop, a flow per pair,
a pure-Python Hopcroft-Karp, the per-edge digraph constructor, the subset
DP that rebuilt its popcount layers on every call), kept as the
outputs that the faster code must reproduce exactly. A maximum matching itself may differ from the reference
one; its size, Koenig cover and Hall violator may not.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np

from hamlab import BipartiteGraph, Digraph, ParameterError, ScaleError
from hamlab.cycle_cover import ClauseReport, DegreeInheritanceReport
from hamlab.digraph import (
    HamiltonCertificate,
    degree_at,
    degree_sequences,
    verify_hamilton_cycle,
)
from hamlab.matching import (
    Cover,
    Matching,
    _nonadjacent_pairs,
    _split_network,
    is_strongly_connected,
)
from hamlab.oracle import _HAMILTON_CAP

INF = float("inf")


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


def bipartite_rows(b: BipartiteGraph) -> list[list[int]]:
    """The B-neighbours of each A-vertex, read off the CSR."""
    return [
        b.indices[b.indptr[a] : b.indptr[a + 1]].tolist() for a in range(b.a_size)
    ]


def bipartite_edges(b: BipartiteGraph) -> set[tuple[int, int]]:
    return {(a, bb) for a, row in enumerate(bipartite_rows(b)) for bb in row}


def brute_max_matching(b: BipartiteGraph) -> int:
    """Exponential branch-and-bound maximum matching size."""
    adj = bipartite_rows(b)

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
    return all(u in a_side or v in b_side for u, v in bipartite_edges(b))


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
    """Maximum number of internally disjoint x->y paths (small n).

    For a nonadjacent pair this is the minimum x-y separator size, found
    by exhaustive subset search. An arc xy is one path on its own and meets
    no other, so an adjacent pair has one more than the pair in g - xy.
    """
    if g.has_edge(x, y):
        rest = Digraph(g.n, [e for e in g.edges() if e != (x, y)])
        return 1 + brute_vertex_menger(rest, x, y)
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
    rows = p.mat.tolist()
    for xa in range(1, len(a) + 1):
        if Fraction(xa) < min_a:
            continue
        for xs in combinations(range(len(a)), xa):
            for yb in range(1, len(b) + 1):
                if Fraction(yb) < min_b:
                    continue
                for ys in combinations(range(len(b)), yb):
                    cnt = sum(rows[i][j] for i in xs for j in ys)
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
    mat = p.mat
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


class _HopcroftKarp:
    """Hopcroft-Karp in pure Python: layered BFS phases, then a DFS per free
    A-vertex along the layers, rows scanned in ascending order."""

    def __init__(self, b: BipartiteGraph):
        self.adj = bipartite_rows(b)
        self.na = b.a_size
        self.nb = b.b_size
        self.pair_a = [-1] * self.na
        self.pair_b = [-1] * self.nb
        self.dist = [0] * self.na
        self._run()

    def _bfs(self) -> bool:
        queue = deque()
        for a in range(self.na):
            if self.pair_a[a] == -1:
                self.dist[a] = 0
                queue.append(a)
            else:
                self.dist[a] = INF
        found = False
        while queue:
            a = queue.popleft()
            for b in self.adj[a]:
                nxt = self.pair_b[b]
                if nxt == -1:
                    found = True
                elif self.dist[nxt] is INF:
                    self.dist[nxt] = self.dist[a] + 1
                    queue.append(nxt)
        return found

    def _dfs(self, root: int) -> bool:
        # iterative DFS: stack of (a, iterator index into adj[a])
        stack = [(root, 0)]
        path: list[tuple[int, int]] = []  # (a, b) tentative augmenting edges
        while stack:
            a, idx = stack.pop()
            advanced = False
            while idx < len(self.adj[a]):
                b = self.adj[a][idx]
                idx += 1
                nxt = self.pair_b[b]
                if nxt == -1:
                    path.append((a, b))
                    for pa, pb in path:
                        self.pair_a[pa] = pb
                        self.pair_b[pb] = pa
                    return True
                if self.dist[nxt] == self.dist[a] + 1:
                    stack.append((a, idx))
                    path.append((a, b))
                    stack.append((nxt, 0))
                    advanced = True
                    break
            if not advanced:
                self.dist[a] = INF
                if path and path[-1][0] != a and stack:
                    # backtrack: drop the tentative edge leading into a
                    path.pop()
        return False

    def _run(self):
        while self._bfs():
            for a in range(self.na):
                if self.pair_a[a] == -1:
                    self._dfs(a)

    def alternating_reach(self) -> tuple[list[bool], list[bool]]:
        """The A- and B-vertices reachable by alternating paths from the
        unmatched A-vertices."""
        visited_a = [self.pair_a[a] == -1 for a in range(self.na)]
        visited_b = [False] * self.nb
        queue = deque(a for a in range(self.na) if visited_a[a])
        while queue:
            a = queue.popleft()
            for bb in self.adj[a]:
                if not visited_b[bb]:
                    visited_b[bb] = True
                    nxt = self.pair_b[bb]
                    if nxt != -1 and not visited_a[nxt]:
                        visited_a[nxt] = True
                        queue.append(nxt)
        return visited_a, visited_b


def reference_max_matching(b: BipartiteGraph) -> Matching:
    hk = _HopcroftKarp(b)
    return Matching(tuple((a, bb) for a, bb in enumerate(hk.pair_a) if bb != -1))


def reference_min_cover(b: BipartiteGraph) -> Cover:
    """The Koenig cover (A \\ Z) | (B & Z) read off a Hopcroft-Karp run."""
    visited_a, visited_b = _HopcroftKarp(b).alternating_reach()
    return Cover(
        frozenset(a for a in range(b.a_size) if not visited_a[a]),
        frozenset(bb for bb in range(b.b_size) if visited_b[bb]),
    )


def reference_hall_violator(b: BipartiteGraph, defect: int = 0):
    """The defect-Hall violator read off a Hopcroft-Karp run's own state:
    the A-vertices reachable by alternating paths from unmatched ones."""
    hk = _HopcroftKarp(b)
    if hk.pair_a.count(-1) <= defect:
        return None
    visited_a, _ = hk.alternating_reach()
    return {a for a in range(b.a_size) if visited_a[a]}


def reference_vertex_menger_value(g: Digraph, x: int, y: int, limit=float("inf")) -> int:
    """Unit-capacity flow on a split network built for this pair alone."""
    net = _split_network(g, x, y)
    return net.max_flow(2 * x + 1, 2 * y, limit)


def reference_strong_connectivity(g: Digraph) -> int:
    """One flow per nonadjacent pair, each on its own split network."""
    if not is_strongly_connected(g):
        return 0
    best = g.n - 1
    for x, y in _nonadjacent_pairs(g):
        best = min(best, reference_vertex_menger_value(g, x, y, best))
        if best == 0:
            break
    return best


def reference_find_separator(g: Digraph, k: int):
    """The min cut of the first nonadjacent pair whose flow falls below k,
    with the split network rebuilt for every pair and no certificate."""
    if not is_strongly_connected(g) and g.n > 1:
        return set()
    for x, y in _nonadjacent_pairs(g):
        net = _split_network(g, x, y)
        flow = net.max_flow(2 * x + 1, 2 * y, k)
        if flow < k:
            side = net.source_side(2 * x + 1)
            return {
                v for v in range(g.n) if 2 * v in side and 2 * v + 1 not in side
            }
    return None


def reference_internally_disjoint_paths(g: Digraph, x: int, y: int, count: int):
    """Decompose a flow of up to ``count`` units on the pair's own split
    network into paths, following flow-carrying arcs in edge order."""
    net = _split_network(g, x, y)
    flow = net.max_flow(2 * x + 1, 2 * y, count)
    used_edge = [False] * len(net.to)
    succ_of = [
        [e for e in net.head[u] if e % 2 == 0 and net.cap[e ^ 1] > 0]
        for u in range(2 * g.n)
    ]
    paths = []
    for _ in range(flow):
        path = [x]
        node = 2 * x + 1
        while node != 2 * y:
            eid = next(e for e in succ_of[node] if not used_edge[e])
            used_edge[eid] = True
            node = net.to[eid]
            if node % 2 == 0 and node != 2 * y:
                path.append(node // 2)
                eid = next(e for e in succ_of[node] if not used_edge[e])
                used_edge[eid] = True
                node = net.to[eid]
        path.append(y)
        paths.append(path)
    return paths


class ReferenceDigraph(NamedTuple):
    out_adj: tuple
    in_adj: tuple
    out_sets: tuple
    in_sets: tuple
    edge_count: int


def reference_digraph(n: int, edges) -> ReferenceDigraph:
    """The per-edge pure-Python ``Digraph`` constructor: each edge in input
    order is checked for range, then self-loop, then an earlier copy."""
    if n < 0:
        raise ParameterError(f"vertex count must be nonnegative, got {n}")
    out: list[list[int]] = [[] for _ in range(n)]
    inn: list[list[int]] = [[] for _ in range(n)]
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ParameterError(f"self-loop at vertex {u}")
        if (u, v) in seen:
            raise ParameterError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        out[u].append(v)
        inn[v].append(u)
    out_adj = tuple(tuple(sorted(a)) for a in out)
    in_adj = tuple(tuple(sorted(a)) for a in inn)
    return ReferenceDigraph(
        out_adj,
        in_adj,
        tuple(frozenset(a) for a in out_adj),
        tuple(frozenset(a) for a in in_adj),
        len(seen),
    )


def reference_inherited_degrees(r: Digraph, d, beta, g=None, part=None):
    """The ``Fraction`` loop of ``verify_inherited_degrees``: each clause's
    margin is the first index with the strictly smallest margin."""
    d, beta = Fraction(d), Fraction(beta)
    k = r.n
    seqs = degree_sequences(r)
    clauses: list[ClauseReport] = []

    if g is not None:
        m = part.m
        gseqs = degree_sequences(g)
        for name, rseq, gseq in (
            ("i", seqs.out_sorted, gseqs.out_sorted),
            ("ii", seqs.in_sorted, gseqs.in_sorted),
        ):
            margin, wit = None, None
            for i in range(1, k + 1):
                bound = Fraction(gseq[i * m - 1], m) - 2 * d * k
                cur = rseq[i - 1] - bound
                if margin is None or cur < margin:
                    margin, wit = cur, i
            clauses.append(ClauseReport(name, margin >= 0, margin, wit))

    floor = beta * k / 2
    for name, value in (
        ("iii", r.min_out_degree()),
        ("iv", r.min_in_degree()),
    ):
        clauses.append(ClauseReport(name, value >= floor, value - floor))

    cap = (Fraction(1, 2) - 2 * d) * k
    for name, fwd, bwd in (
        ("v", seqs.out_sorted, seqs.in_sorted),
        ("vi", seqs.in_sorted, seqs.out_sorted),
    ):
        margin, wit = None, None
        for i in range(1, k + 1):
            first = Fraction(fwd[i - 1]) - min(i + beta * k / 2, cap)
            back = degree_at(bwd, (1 - beta / 2) * k - i)
            if back is None:
                second = None
            else:
                second = Fraction(back) - (k - i - 2 * d * k)
            cur = first if second is None else max(first, second)
            if margin is None or cur < margin:
                margin, wit = cur, i
        clauses.append(ClauseReport(name, margin >= 0, margin, wit))

    return DegreeInheritanceReport(tuple(clauses))


def reference_brute_force_hamiltonian(g: Digraph) -> HamiltonCertificate | None:
    """Exact Hamiltonicity via subset DP over endpoint bitmasks.

    State: for each vertex subset S containing vertex 0, the set of
    endpoints v such that some path from 0 through exactly S ends at v.
    Layers are processed in order of |S| with numpy-vectorized updates.
    """
    n = g.n
    if n > _HAMILTON_CAP:
        raise ScaleError(f"exact oracle capped at n={_HAMILTON_CAP}, got {n}")
    if n < 2:
        return None

    in_mask = np.zeros(n, dtype=np.uint32)
    for v in range(n):
        m = 0
        for u in g.in_adj[v]:
            m |= 1 << u
        in_mask[v] = m

    size = 1 << n
    ends = np.zeros(size, dtype=np.uint32)
    ends[1] = 1  # path "0" through {0} ends at 0

    all_subsets = np.arange(size, dtype=np.uint32)
    # subsets containing vertex 0, grouped by popcount
    with0 = all_subsets[(all_subsets & 1) != 0]
    pop = np.zeros(size, dtype=np.uint8)
    for b in range(n):
        pop += ((all_subsets >> np.uint32(b)) & 1).astype(np.uint8)
    for c in range(1, n):
        layer = with0[pop[with0] == c]
        layer_ends = ends[layer]
        active = layer[layer_ends != 0]
        if active.size == 0:
            continue
        active_ends = ends[active]
        for v in range(1, n):
            bit = np.uint32(1 << v)
            sel = ((active & bit) == 0) & ((active_ends & in_mask[v]) != 0)
            if sel.any():
                np.bitwise_or.at(ends, active[sel] | bit, bit)

    full = size - 1
    final = int(ends[full])
    closers = [v for v in g.in_adj[0] if final & (1 << v)]
    if not closers:
        return None

    # backtrack one Hamilton path 0 -> ... -> v with edge v -> 0
    order = []
    v = closers[0]
    s = full
    while v != 0:
        order.append(v)
        prev_s = s & ~(1 << v)
        prev_ends = int(ends[prev_s]) & int(in_mask[v])
        assert prev_ends, "DP backtrack lost the path"
        u = (prev_ends & -prev_ends).bit_length() - 1
        s, v = prev_s, u
    order.append(0)
    order.reverse()
    cert = HamiltonCertificate(tuple(order))
    assert verify_hamilton_cycle(g, cert)
    return cert
