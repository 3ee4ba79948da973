"""Exact brute-force oracles: Hamiltonicity and maximum cycle-cover coverage.

These are the ground truth the rest of the package is validated against.
Both are exact and deliberately capped at desk scale.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from scipy.optimize import linear_sum_assignment

from .digraph import Digraph, HamiltonCertificate, verify_hamilton_cycle
from .errors import ContractError, ScaleError, UnreachableError

_HAMILTON_CAP = 20
_COVER_CAP = 16
_BITS = tuple(np.uint32(1 << v) for v in range(_HAMILTON_CAP))


@cache
def _layers(n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The subsets of range(n) that contain vertex 0, ordered by popcount.

    Returns the order as one read-only uint32 array and the layer bounds:
    the subsets of popcount c are ``order[bounds[c]:bounds[c + 1]]``, in
    ascending order (the sort is stable).
    """
    with0 = np.arange(1, 1 << n, 2, dtype=np.uint32)
    pop = np.zeros(with0.size, dtype=np.uint8)
    for b in range(n):
        pop += ((with0 >> np.uint32(b)) & 1).astype(np.uint8)
    order = with0[np.argsort(pop, kind="stable")]
    order.setflags(write=False)
    counts = np.bincount(pop, minlength=n + 1)
    bounds = (0, *np.cumsum(counts).tolist())
    return order, bounds


def brute_force_hamiltonian(g: Digraph) -> HamiltonCertificate | None:
    """Exact Hamiltonicity via subset DP over endpoint bitmasks.

    State: for each vertex subset S containing vertex 0, the set of
    endpoints v such that some path from 0 through exactly S ends at v.
    Layers are processed in order of |S| with numpy-vectorized updates;
    each layer is a slice of ``_layers(n)``, built once per n and cached.
    Under ``--jobs`` threads (``run_experiment``'s parallelism), concurrent
    first calls at one n may each build that order; the builds are equal and
    their arrays read-only, so whichever is cached serves every later call.
    """
    n = g.n
    if n > _HAMILTON_CAP:
        raise ScaleError(f"exact oracle capped at n={_HAMILTON_CAP}, got {n}")
    if n < 2:
        return None

    in_mask = []
    for v in range(n):
        m = 0
        for u in g.in_adj[v]:
            m |= 1 << u
        in_mask.append(m)
    masks = [np.uint32(m) for m in in_mask]

    size = 1 << n
    ends = np.zeros(size, dtype=np.uint32)
    ends[1] = 1  # path "0" through {0} ends at 0

    order, bounds = _layers(n)
    for c in range(1, n):
        layer = order[bounds[c] : bounds[c + 1]]
        layer_ends = ends[layer]
        live = layer_ends != 0
        active = layer[live]
        if active.size == 0:
            break  # no path reaches a later layer either
        active_ends = layer_ends[live]
        for v in range(1, n):
            bit = _BITS[v]
            sel = ((active & bit) == 0) & ((active_ends & masks[v]) != 0)
            grown = active[sel]
            if grown.size:
                # targets are distinct: the sets are distinct, none holds v
                ends[grown | bit] |= bit

    full = size - 1
    final = int(ends[full])
    closers = [v for v in g.in_adj[0] if final & (1 << v)]
    if not closers:
        return None

    # backtrack one Hamilton path 0 -> ... -> v with edge v -> 0
    path = []
    v = closers[0]
    s = full
    while v != 0:
        path.append(v)
        prev_s = s & ~(1 << v)
        prev_ends = int(ends[prev_s]) & in_mask[v]
        if not prev_ends:
            raise ContractError("DP backtrack lost the path")
        u = (prev_ends & -prev_ends).bit_length() - 1
        s, v = prev_s, u
    path.append(0)
    path.reverse()
    cert = HamiltonCertificate(tuple(path))
    if not verify_hamilton_cycle(g, cert):
        raise ContractError("DP certificate is not a Hamilton cycle", cert)
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
    if total > 0:
        raise ContractError("assignment used a forbidden slot")
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
