"""Exact matching, cover, 1-factor, disjoint-path and connectivity kernels.

A bipartite graph is a CSR biadjacency over its A side, and maximum
matching is ``scipy.sparse.csgraph.maximum_bipartite_matching`` on that
CSR (Hopcroft-Karp, O(E sqrt(V))). Minimum covers come from the Koenig
construction on that matching, so a Hall query runs one matching. The
doubled graph of a digraph, whose perfect matchings are its 1-factors, is
the digraph's own out-adjacency CSR (``indptr``/``indices``), not a copy.

Vertex-disjoint paths use unit-capacity max-flow on the split digraph, but
only where the common-neighbour certificate does not already settle the
pair: the arc xy, if present, and the paths x -> w -> y, one per w in
N+(x) & N-(y), are internally disjoint, so the Menger value of (x, y) is at
least |N+(x) & N-(y)| + [xy in E]. The separator search and the path
search use this certificate; the Menger value itself is always a flow.
All tie-breaking is by vertex order, so results are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from .digraph import BipartiteGraph, Digraph, OneFactor
from .errors import ContractError, ParameterError, PreconditionError

INF = float("inf")


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges (a, b) of a bipartite graph."""

    pairs: tuple[tuple[int, int], ...]

    def size(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class Cover:
    """A vertex cover, split by side."""

    a_side: frozenset
    b_side: frozenset

    def size(self) -> int:
        return len(self.a_side) + len(self.b_side)


def max_matching(b: BipartiteGraph) -> Matching:
    """A maximum matching (certified maximum by the companion Koenig cover),
    listed by ascending A-vertex."""
    graph = csr_array(
        (np.ones(len(b.indices), dtype=np.int8), b.indices, b.indptr),
        shape=(b.a_size, b.b_size),
    )
    mate = maximum_bipartite_matching(graph, perm_type="column")
    matched = np.flatnonzero(mate >= 0)
    return Matching(tuple(zip(matched.tolist(), mate[matched].tolist())))


def _koenig_cover(b: BipartiteGraph, matching: Matching) -> Cover:
    """Koenig construction on a maximum matching: with Z the set of vertices
    reachable by alternating paths from unmatched A-vertices, the cover is
    (A \\ Z) | (B & Z). Z is the same for every maximum matching."""
    indptr, indices = b.indptr.tolist(), b.indices.tolist()
    pair_b = [-1] * b.b_size
    visited_a = [True] * b.a_size
    for a, bb in matching.pairs:
        pair_b[bb] = a
        visited_a[a] = False
    visited_b = [False] * b.b_size
    queue = deque(a for a in range(b.a_size) if visited_a[a])
    while queue:
        a = queue.popleft()
        for bb in indices[indptr[a] : indptr[a + 1]]:
            if not visited_b[bb]:
                visited_b[bb] = True
                nxt = pair_b[bb]
                if nxt != -1 and not visited_a[nxt]:
                    visited_a[nxt] = True
                    queue.append(nxt)
    a_side = frozenset(a for a in range(b.a_size) if not visited_a[a])
    b_side = frozenset(bb for bb in range(b.b_size) if visited_b[bb])
    return Cover(a_side, b_side)


def min_cover(b: BipartiteGraph) -> Cover:
    """A minimum vertex cover, of size equal to the maximum matching."""
    return _koenig_cover(b, max_matching(b))


def matching_or_violator(
    b: BipartiteGraph, defect: int = 0
) -> tuple[Matching, set[int] | None]:
    """A maximum matching, and a set S in A with |N(S)| < |S| - defect when
    the matching falls short of |A| - defect (else None).

    One matching run: S = A \\ (cover & A) for the Koenig cover of
    that same matching.
    """
    matching = max_matching(b)
    if matching.size() >= b.a_size - defect:
        return matching, None
    cover = _koenig_cover(b, matching)
    return matching, set(range(b.a_size)) - set(cover.a_side)


def hall_violator(b: BipartiteGraph, defect: int = 0) -> set[int] | None:
    """A set S in A with |N(S)| < |S| - defect, or None if none exists."""
    return matching_or_violator(b, defect)[1]


def defect_hall_matching(b: BipartiteGraph, defect: int) -> Matching:
    """A matching of size at least |A| - defect.

    The caller asserts |N(S)| >= |S| - defect for all S in A; when that is
    checkably false the violating S is raised as the error payload.
    """
    matching, violator = matching_or_violator(b, defect)
    if violator is None:
        return matching
    raise PreconditionError(
        f"defect-Hall condition fails: |S|={len(violator)} has "
        f"|N(S)| < |S| - {defect} for S={sorted(violator)}"
    )


@dataclass(frozen=True)
class FactorCertificate:
    """Either a 1-factor of the digraph or an expansion violator set S."""

    factor: OneFactor | None = None
    violator: frozenset | None = None

    def __post_init__(self):
        if (self.factor is None) == (self.violator is None):
            raise ParameterError("exactly one of factor/violator must be present")


def find_one_factor(j: Digraph) -> FactorCertificate:
    """A 1-factor of j, or a set S with |N+(S)| < |S| when none exists.

    A perfect matching in the doubled bipartite graph (out-copies vs
    in-copies, whose biadjacency is j's out-adjacency) corresponds exactly
    to a 1-factor; the violator comes from the Koenig cover when the
    matching is imperfect.
    """
    doubled = BipartiteGraph(j.n, j.n, j.indptr, j.indices)
    matching, violator = matching_or_violator(doubled)
    if violator is None:
        succ = [-1] * j.n
        for a, b in matching.pairs:
            succ[a] = b
        return FactorCertificate(factor=OneFactor(succ, host=j))
    return FactorCertificate(violator=frozenset(violator))


# -- vertex-capacitated max flow ---------------------------------------------
#
# Vertices are split into in/out copies with unit capacity; the split is
# internal and never exposed in the API types.


class _UnitFlow:
    """Unit-capacity max flow with BFS augmentation (Ford-Fulkerson)."""

    def __init__(self, num_nodes: int):
        self.n = num_nodes
        self.head: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int = 1):
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int, limit: float = INF) -> int:
        flow = 0
        while flow < limit:
            parent_edge = [-1] * self.n
            parent_edge[s] = -2
            queue = deque([s])
            while queue:
                u = queue.popleft()
                if u == t:
                    break
                for eid in self.head[u]:
                    v = self.to[eid]
                    if self.cap[eid] > 0 and parent_edge[v] == -1:
                        parent_edge[v] = eid
                        queue.append(v)
            if parent_edge[t] == -1:
                break
            v = t
            while v != s:
                eid = parent_edge[v]
                self.cap[eid] -= 1
                self.cap[eid ^ 1] += 1
                v = self.to[eid ^ 1]
            flow += 1
        return flow

    def source_side(self, s: int) -> set[int]:
        """Nodes reachable from s in the residual network."""
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in self.head[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def _split_network(g: Digraph, x: int, y: int) -> _UnitFlow:
    # node 2v = in-copy, 2v+1 = out-copy; x,y get infinite vertex capacity
    net = _UnitFlow(2 * g.n)
    for v in range(g.n):
        net.add_edge(2 * v, 2 * v + 1, g.n if v in (x, y) else 1)
    for u in range(g.n):
        for v in g.out_adj[u]:
            # effectively infinite, so cuts land on internal edges only;
            # a direct x->y edge keeps cap 1 (it admits a single path)
            cap = 1 if (u, v) == (x, y) else g.n
            net.add_edge(2 * u + 1, 2 * v, cap)
    return net


def _menger_lower_bound(g: Digraph, x: int, y: int) -> int:
    """Internally disjoint x->y paths known without a flow: the arc xy, if
    present, and x -> w -> y for each common neighbour w."""
    return len(g.out_sets[x] & g.in_sets[y]) + g.has_edge(x, y)


def vertex_menger_value(g: Digraph, x: int, y: int, limit: float = INF) -> int:
    """Max number of internally disjoint x->y paths, counted up to ``limit``.

    A direct arc xy counts as one path, so in the complete digraph on n
    vertices every pair has value n - 1.
    """
    if x == y:
        raise ParameterError("endpoints must differ")
    net = _split_network(g, x, y)
    return net.max_flow(2 * x + 1, 2 * y, limit)


def internally_disjoint_paths(
    g: Digraph, x: int, y: int, count: int
) -> list[list[int]]:
    """Up to ``count`` directed x->y paths sharing only x and y, sorted.

    Returns as many as exist if fewer than ``count`` are available.
    """
    if x == y:
        raise ParameterError("endpoints must differ")
    short = [[x, y]] if g.has_edge(x, y) else []
    short += [[x, w, y] for w in sorted(g.out_sets[x] & g.in_sets[y])]
    if 0 <= count <= len(short):
        # the flow's BFS augments along these shortest paths first, in order
        return sorted(short[:count])
    net = _split_network(g, x, y)
    flow = net.max_flow(2 * x + 1, 2 * y, count)
    # decompose the flow into paths by walking saturated forward edges
    used_edge = [False] * len(net.to)
    succ_of: list[list[int]] = [[] for _ in range(2 * g.n)]
    for u in range(2 * g.n):
        for eid in net.head[u]:
            if eid % 2 == 0 and net.cap[eid ^ 1] > 0:
                succ_of[u].append(eid)
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
                # traverse the internal split edge
                eid = next(
                    e for e in succ_of[node] if not used_edge[e]
                )
                used_edge[eid] = True
                node = net.to[eid]
        path.append(y)
        paths.append(path)
    return paths


def is_strongly_connected(g: Digraph) -> bool:
    if g.n <= 1:
        return True

    def reach(adj) -> int:
        seen = [False] * g.n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    queue.append(v)
        return count

    return reach(g.out_adj) == g.n and reach(g.in_adj) == g.n


def _nonadjacent_pairs(g: Digraph):
    for x in range(g.n):
        for y in range(g.n):
            if x != y and not g.has_edge(x, y):
                yield x, y


def is_strongly_k_connected(g: Digraph, k: int) -> bool:
    """True iff g has no separator of size < k (and |G| > k)."""
    return g.n > k and find_separator(g, k) is None


def strong_connectivity(g: Digraph) -> int:
    """The largest k such that g is strongly k-connected.

    For a complete digraph the value is defined as n - 1.
    """
    if not is_strongly_connected(g):
        return 0
    best = g.n - 1
    for x, y in _nonadjacent_pairs(g):
        best = min(best, vertex_menger_value(g, x, y, best))
        if best == 0:
            break
    return best


def find_separator(g: Digraph, k: int) -> set[int] | None:
    """A separator of size < k if one exists, else None.

    The separator comes from the min vertex cut of the first nonadjacent
    pair whose Menger value falls below k. Pairs with at least k common
    neighbours are certified without a flow.
    """
    if not is_strongly_connected(g):
        # a disconnected digraph is separated by the empty set
        if g.n > 1:
            return set()
    for x, y in _nonadjacent_pairs(g):
        if _menger_lower_bound(g, x, y) >= k:
            continue
        net = _split_network(g, x, y)
        flow = net.max_flow(2 * x + 1, 2 * y, k)
        if flow < k:
            side = net.source_side(2 * x + 1)
            cut = {
                v
                for v in range(g.n)
                if 2 * v in side and 2 * v + 1 not in side
            }
            if len(cut) != flow:
                raise ContractError(
                    f"cut of {len(cut)} vertices for a flow of {flow}", cut
                )
            return cut
    return None
