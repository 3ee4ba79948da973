"""Exact brute-force oracles: Hamiltonicity and maximum cycle-cover coverage.

These are the ground truth the rest of the package is validated against.
Both are exact and deliberately capped at desk scale.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .digraph import Digraph, HamiltonCertificate, verify_hamilton_cycle
from .errors import ScaleError, UnreachableError

_HAMILTON_CAP = 20
_COVER_CAP = 16


def brute_force_hamiltonian(g: Digraph) -> HamiltonCertificate | None:
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


def enumerate_hamiltonian_permutation(g: Digraph) -> HamiltonCertificate | None:
    """Cross-check oracle: plain permutation enumeration, n <= 10."""
    from itertools import permutations

    if g.n > 10:
        raise ScaleError(f"permutation oracle capped at n=10, got {g.n}")
    if g.n < 2:
        return None
    for rest in permutations(range(1, g.n)):
        order = (0,) + rest
        if all(g.has_edge(order[i], order[(i + 1) % g.n]) for i in range(g.n)):
            return HamiltonCertificate(order)
    return None


def max_cycle_cover_coverage(g: Digraph) -> int:
    """Maximum number of vertices coverable by vertex-disjoint cycles.

    Solved as an assignment problem: each vertex picks either a real
    out-edge (cost -1) or stays uncovered via its zero-cost diagonal slot.
    Any optimal assignment's non-fixed points decompose into disjoint
    cycles of g, so coverage equals the number of edge slots chosen.
    """
    n = g.n
    if n > _COVER_CAP:
        raise ScaleError(f"cycle-cover oracle capped at n={_COVER_CAP}, got {n}")
    if n == 0:
        return 0
    cost = np.full((n, n), n + 1, dtype=np.int64)
    np.fill_diagonal(cost, 0)
    for u in range(n):
        cost[u, list(g.out_adj[u])] = -1
    rows, cols = linear_sum_assignment(cost)
    total = int(cost[rows, cols].sum())
    assert total <= 0, "assignment used a forbidden slot"
    return -total


def shortest_path(g: Digraph, x: int, y: int) -> list[int]:
    """BFS shortest directed path from x to y (inclusive)."""
    from collections import deque

    if x == y:
        return [x]
    parent = {x: -1}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for v in g.out_adj[u]:
            if v not in parent:
                parent[v] = u
                if v == y:
                    path = [y]
                    while path[-1] != x:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                queue.append(v)
    raise UnreachableError(f"no directed path from {x} to {y}")
