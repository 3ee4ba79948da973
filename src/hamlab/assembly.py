"""End-to-end Hamilton-cycle assembly for clustered instances.

Pipeline: reserve ideals on factor edges, attach the exceptional
vertices, build a closed cluster walk, fix concrete edges for the walk's
non-factor steps, complete a 1-factor with per-factor-edge perfect
matchings, then merge cluster by cluster until a single verified
Hamilton cycle remains.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

import numpy as np

from .digraph import (
    Digraph,
    HamiltonCertificate,
    OneFactor,
    verify_hamilton_cycle,
)
from .errors import (
    ContractError,
    GenerationError,
    ParameterError,
    SearchFailureError,
    UnreachableError,
    WrongPipelineError,
)
from .matching import is_strongly_k_connected, max_matching
from .regular_pairs import ClusterPartition, Pair, select_ideal
from .shifted_walks import ShiftedWalk, build_H, find_shifted_walk, shorten_walk


@dataclass(frozen=True)
class IdealReservation:
    """Per-cluster reserved vertex sets X*, from ideals on factor edges."""

    star: tuple[frozenset, ...]  # per cluster index
    per_edge: dict  # cluster -> (a_star in cluster, b_star in successor)


def reserve_ideals(
    g: Digraph, part: ClusterPartition, f: OneFactor, eps, d, seed: int = 0
) -> IdealReservation:
    """Reserve an ideal sub-pair on every factor edge with theta = 16d.

    star[X] collects the ideal vertices that land inside cluster X from
    both incident factor edges; |star[X]| <= 32*d*m.
    """
    d = Fraction(d)
    # 16d is far below 1 in the asymptotic regime; cap it for desk-scale d,
    # and escalate theta when the tiny ideal has no admissible draw
    base = min(16 * d, Fraction(1, 5))
    thetas = [base, Fraction(2, 5), Fraction(3, 5)]
    star = [set() for _ in range(part.k)]
    per_edge = {}
    for x in range(part.k):
        x_next = f.successor(x)
        pair = Pair.of(g, part.clusters[x], part.clusters[x_next])
        for pos, theta in enumerate(thetas):
            try:
                a_star, b_star = select_ideal(pair, theta, eps, d, seed=seed + x)
                break
            except GenerationError:
                if pos == len(thetas) - 1:
                    raise
        per_edge[x] = (frozenset(a_star), frozenset(b_star))
        star[x] |= a_star
        star[x_next] |= b_star
    limit = 32 * d * part.m
    for x in range(part.k):
        if len(star[x]) > limit:
            raise ContractError(
                f"reserved set of cluster {x} has {len(star[x])} > {limit} vertices"
            )
    return IdealReservation(tuple(frozenset(s) for s in star), per_edge)


@dataclass(frozen=True)
class ExcEntry:
    x: int
    x_minus: int
    x_cluster: int  # cluster of x_minus
    x_plus: int
    y_cluster: int  # cluster of x_plus


@dataclass(frozen=True)
class ExceptionalAssignment:
    entries: tuple[ExcEntry, ...]

    def used_vertices(self) -> set[int]:
        used = set()
        for e in self.entries:
            used.add(e.x_minus)
            used.add(e.x_plus)
        return used


def assign_exceptional(
    g: Digraph,
    part: ClusterPartition,
    ideals: IdealReservation,
    seed: int = 0,
) -> ExceptionalAssignment:
    """Greedy in/out neighbor selection for each exceptional vertex.

    Skips vertices already chosen, ideal-set vertices, and clusters at
    their appearance cap. The m/60 cap of the asymptotic argument is
    floored at 1 so that desk-scale instances remain feasible.
    """
    rng = np.random.default_rng(seed)
    cluster_of = part.cluster_of()
    cap = max(1, part.m // 60)
    appearance: Counter = Counter()
    used: set[int] = set()
    entries = []
    for x in part.v0:
        choice = {}
        for role, nbrs in (("minus", g.in_adj[x]), ("plus", g.out_adj[x])):
            candidates = [
                v
                for v in nbrs
                if v in cluster_of
                and v not in used
                and v not in ideals.star[cluster_of[v]]
                and appearance[cluster_of[v]] < cap
            ]
            if not candidates:
                census = {
                    "x": x,
                    "role": role,
                    "neighbors": len(nbrs),
                    "used": len(used),
                    "capped_clusters": [
                        c for c, n in appearance.items() if n >= cap
                    ],
                }
                raise ContractError(
                    f"no available {role}-neighbor for exceptional vertex {x}",
                    witness=census,
                )
            pick = candidates[int(rng.integers(len(candidates)))]
            used.add(pick)
            appearance[cluster_of[pick]] += 1
            choice[role] = pick
        entries.append(
            ExcEntry(
                x=x,
                x_minus=choice["minus"],
                x_cluster=cluster_of[choice["minus"]],
                x_plus=choice["plus"],
                y_cluster=cluster_of[choice["plus"]],
            )
        )
    return ExceptionalAssignment(tuple(entries))


@dataclass(frozen=True)
class ClusterWalk:
    """The closed walk: per gap i a shifted walk from Y_i to X_{i+1}^+,
    implicitly followed by the factor path X_{i+1}^+ ... X_{i+1} and the
    exceptional vertex x_{i+1}. With no exceptional vertices the single
    walk is closed at cluster 0."""

    walks: tuple[ShiftedWalk, ...]
    assignment: ExceptionalAssignment
    factor: OneFactor
    k: int

    def connection_edges(self) -> list[tuple[int, int]]:
        """All non-factor cluster edges (exit cluster, entry cluster)."""
        edges = []
        for w in self.walks:
            for i in range(w.t):
                edges.append((w.factor.predecessor(w.entries[i]), w.entries[i + 1]))
        return edges

    def expansion(self) -> list[int]:
        """Full visited cluster sequence of the closed walk."""
        seq: list[int] = []
        r = len(self.assignment.entries)
        for idx, w in enumerate(self.walks):
            body = w.cluster_sequence()[:-1]
            seq.extend(body)
            if r:
                # factor path from X_{i+1}^+ around to X_{i+1}
                target_cluster = self.assignment.entries[(idx + 1) % r].x_cluster
                v = w.b
                while True:
                    seq.append(v)
                    if v == target_cluster:
                        break
                    v = self.factor.successor(v)
        return seq

    def visit_counts(self) -> Counter:
        return Counter(self.expansion())


def _covering_walk(
    r2: Digraph, f: OneFactor, h: Digraph, start: int, end: int
) -> ShiftedWalk:
    """A chain of shifted walks from start to end using every cluster.

    Unlike the linking walks, it does not enforce the internal-use cap.
    """
    k = r2.n
    walk = ShiftedWalk((start,), f)
    unused = set(range(k))

    def mark(w: ShiftedWalk):
        unused.discard(w.a)
        for x in w.entries[1:]:
            unused.discard(x)
        for x in w.exits():
            unused.discard(x)

    mark(walk)
    current = start
    while unused:
        target = min(unused)
        hop = shorten_walk(find_shifted_walk(r2, f, h, current, target))
        mark(hop)
        walk = walk.concat(hop)
        current = target
        unused.discard(target)
    walk = walk.concat(shorten_walk(find_shifted_walk(r2, f, h, current, end)))
    return walk


def build_walk(
    r2: Digraph,
    f: OneFactor,
    assign: ExceptionalAssignment,
    part: ClusterPartition,
    eta,
) -> ClusterWalk:
    """Assemble the closed cluster walk with balance, coverage and
    exceptional-visit properties; raises wrong-pipeline when the shifted
    digraph misses the ceil(eta*k) connectivity bar."""
    eta = Fraction(eta)
    k = r2.n
    h = build_H(r2, f)
    bar = ceil(eta * k)
    if not is_strongly_k_connected(h, bar):
        raise WrongPipelineError(
            f"shifted digraph is not strongly {bar}-connected; "
            "this instance belongs to the decomposition pipeline"
        )
    entries = assign.entries
    r = len(entries)
    internal_cap = max(3, part.m // 30)
    internal: Counter = Counter()
    walks: list[ShiftedWalk] = []

    def linking_walk(a: int, b: int) -> ShiftedWalk:
        hot = {
            x
            for x, n in internal.items()
            if n >= internal_cap and x not in (a, b)
        }
        try:
            w = find_shifted_walk(r2, f, h, a, b, forbidden=hot)
        except UnreachableError:
            w = find_shifted_walk(r2, f, h, a, b)
        w = shorten_walk(w)
        for x in w.internal_clusters():
            internal[x] += 1
        return w

    if r == 0:
        walks.append(_covering_walk(r2, f, h, 0, 0))
    else:
        for i in range(r - 1):
            a = entries[i].y_cluster
            b = f.successor(entries[i + 1].x_cluster)
            walks.append(linking_walk(a, b))
        a = entries[r - 1].y_cluster
        b = f.successor(entries[0].x_cluster)
        walks.append(_covering_walk(r2, f, h, a, b))

    cw = ClusterWalk(tuple(walks), assign, f, k)
    counts = cw.visit_counts()
    # property (a): per factor cycle, all clusters visited equally often
    for cycle in f.cycles:
        if len({counts[v] for v in cycle}) != 1:
            raise ContractError(
                "walk does not balance a factor cycle",
                witness={"cycle": cycle, "counts": {v: counts[v] for v in cycle}},
            )
    if any(counts[v] == 0 for v in range(k)):
        raise ContractError("walk misses a cluster entirely")
    return cw


@dataclass(frozen=True)
class EntryExitLedger:
    entry: tuple[frozenset, ...]  # per cluster
    exit: tuple[frozenset, ...]

    def validate(self, f: OneFactor) -> None:
        for u in range(len(self.entry)):
            if self.entry[u] & self.exit[u]:
                raise ContractError(f"Entry and Exit overlap in cluster {u}")
            nxt = f.successor(u)
            if len(self.exit[u]) != len(self.entry[nxt]):
                raise ContractError(
                    f"|Exit({u})| = {len(self.exit[u])} != "
                    f"|Entry({nxt})| = {len(self.entry[nxt])}"
                )


@dataclass(frozen=True)
class FactorAssembly:
    fixed_succ: dict  # vertex -> vertex, the fixed (walk) edges
    ledger: EntryExitLedger


def fix_edges(
    g: Digraph,
    part: ClusterPartition,
    walk: ClusterWalk,
    ideals: IdealReservation,
    seed: int = 0,
) -> FactorAssembly:
    """Realize every non-factor walk edge as a concrete host edge.

    Exceptional edges were fixed during assignment; the remaining demand
    is met per ordered cluster pair by a matching that avoids previously
    chosen vertices and the reserved ideal sets.
    """
    rng = np.random.default_rng(seed)
    fixed: dict[int, int] = {}
    used: set[int] = set()
    for e in walk.assignment.entries:
        fixed[e.x_minus] = e.x
        fixed[e.x] = e.x_plus
        used.add(e.x_minus)
        used.add(e.x_plus)

    demand: Counter = Counter(walk.connection_edges())
    for (ci, cj), w_ij in sorted(demand.items()):
        avail_i = [
            v
            for v in part.clusters[ci]
            if v not in used and v not in ideals.star[ci]
        ]
        avail_j = [
            v
            for v in part.clusters[cj]
            if v not in used and v not in ideals.star[cj]
        ]
        rng.shuffle(avail_i)
        rng.shuffle(avail_j)
        chosen = 0
        used_j: set[int] = set()
        pairs = []
        for u in avail_i:
            hit = next(
                (v for v in avail_j if v not in used_j and g.has_edge(u, v)),
                None,
            )
            if hit is not None:
                pairs.append((u, hit))
                used_j.add(hit)
                chosen += 1
                if chosen == w_ij:
                    break
        if chosen < w_ij:
            raise ContractError(
                f"could not fix {w_ij} edges for cluster pair ({ci},{cj}); "
                f"found {chosen}: density/regularity assertion failed",
                witness=(ci, cj),
            )
        for u, v in pairs:
            fixed[u] = v
            used.add(u)
            used.add(v)

    cluster_of = part.cluster_of()
    entry = [set() for _ in range(part.k)]
    exit_ = [set() for _ in range(part.k)]
    v0 = set(part.v0)
    for u, v in fixed.items():
        if u not in v0:
            exit_[cluster_of[u]].add(u)
        if v not in v0:
            entry[cluster_of[v]].add(v)
    ledger = EntryExitLedger(
        tuple(frozenset(s) for s in entry), tuple(frozenset(s) for s in exit_)
    )
    ledger.validate(walk.factor)
    return FactorAssembly(fixed, ledger)


def complete_factor(
    g: Digraph,
    part: ClusterPartition,
    f: OneFactor,
    asm: FactorAssembly,
    seed: int = 0,
) -> OneFactor:
    """Per-factor-edge perfect matchings, unioned with the fixed edges
    into a 1-factor of the host digraph."""
    rng = np.random.default_rng(seed)
    succ = [-1] * g.n
    for u, v in asm.fixed_succ.items():
        succ[u] = v
    for u_idx in range(part.k):
        v_idx = f.successor(u_idx)
        left = [v for v in part.clusters[u_idx] if v not in asm.ledger.exit[u_idx]]
        right = [
            v for v in part.clusters[v_idx] if v not in asm.ledger.entry[v_idx]
        ]
        perm = rng.permutation(len(left))
        left = [left[i] for i in perm]
        matching = max_matching(Pair.of(g, left, right).to_bipartite())
        if matching.size() < len(left):
            raise ContractError(
                f"no perfect matching on the residual factor edge ({u_idx},{v_idx})",
                witness=(u_idx, v_idx),
            )
        for i, j in matching.pairs:
            succ[left[i]] = right[j]
    if any(s == -1 for s in succ):
        missing = [v for v in range(g.n) if succ[v] == -1]
        raise ContractError(f"factor incomplete at vertices {missing[:5]}")
    return OneFactor(succ, host=g)


def _cycle_partition(factor: OneFactor) -> list[frozenset]:
    return [frozenset(c) for c in factor.cycles]


def _coarsens(old: list[frozenset], new: list[frozenset]) -> bool:
    """Every old class must be contained in one new class."""
    index = {}
    for pos, cls in enumerate(new):
        for v in cls:
            index[v] = pos
    for cls in old:
        targets = {index[v] for v in cls}
        if len(targets) != 1:
            return False
    return True


def merge_at_cluster(
    factor: OneFactor,
    u_idx: int,
    part: ClusterPartition,
    f: OneFactor,
    asm: FactorAssembly,
    g: Digraph,
) -> OneFactor:
    """The matching-swap merge: after it, all vertices of the residual
    pair on the factor edge into cluster u_idx share one cycle, and
    co-cyclicity only coarsens."""
    from .oracle import brute_force_hamiltonian

    pred_idx = f.predecessor(u_idx)
    left = [
        v for v in part.clusters[pred_idx] if v not in asm.ledger.exit[pred_idx]
    ]
    right = [v for v in part.clusters[u_idx] if v not in asm.ledger.entry[u_idx]]
    left_set, right_set = set(left), set(right)

    first_return = {}
    for u in right:
        v = factor.successor(u)
        while v not in left_set:
            v = factor.successor(v)
        first_return[u] = v
    if len(set(first_return.values())) != len(right):
        raise ContractError("first-return map is not a bijection")

    index = {u: i for i, u in enumerate(right)}
    edges = []
    for u in right:
        fu = first_return[u]
        for w in g.out_adj[fu]:
            if w in right_set and w != u:
                edges.append((index[u], index[w]))
    j = Digraph(len(right), edges)
    cert = brute_force_hamiltonian(j)
    if cert is None:
        raise SearchFailureError(
            f"contracted digraph at cluster {u_idx} is not Hamiltonian"
        )
    order = [right[i] for i in cert.order]

    succ = list(factor.succ)
    for pos, u in enumerate(order):
        nxt = order[(pos + 1) % len(order)]
        succ[first_return[u]] = nxt
    merged = OneFactor(succ, host=g)

    cyc = merged.cycle_of
    common = {cyc[v] for v in left + right}
    if len(common) != 1:
        raise ContractError(f"merge at cluster {u_idx} left several cycles")
    if not _coarsens(_cycle_partition(factor), _cycle_partition(merged)):
        raise ContractError(f"merge at cluster {u_idx} split a cycle")
    return merged


def assemble_hamilton(
    g: Digraph,
    part: ClusterPartition,
    f: OneFactor,
    r2: Digraph,
    eta,
    eps,
    d,
    seed: int = 0,
    attempts: int = 8,
) -> HamiltonCertificate:
    """Full pipeline; the output always passes Hamilton-cycle verification."""
    if f.n != part.k or r2.n != part.k:
        raise ParameterError(
            f"factor on {f.n} and reduced digraph on {r2.n} vertices, "
            f"need one per cluster: {part.k}"
        )
    for cycle in f.cycles:
        if len(cycle) < 4:
            raise ParameterError("every factor cycle must have length >= 4")
    ideals = reserve_ideals(g, part, f, eps, d, seed=seed)
    assign = assign_exceptional(g, part, ideals, seed=seed)
    walk = build_walk(r2, f, assign, part, eta)
    asm = fix_edges(g, part, walk, ideals, seed=seed)

    last_error: Exception | None = None
    for attempt in range(attempts):
        try:
            factor = complete_factor(g, part, f, asm, seed=seed + 1000 * attempt)
            for u_idx in _merge_order(f):
                factor = merge_at_cluster(factor, u_idx, part, f, asm, g)
            if len(factor.cycles) != 1:
                raise ContractError(
                    f"assembly bug: {len(factor.cycles)} cycles remain"
                )
            cert = HamiltonCertificate(factor.cycles[0])
            if not verify_hamilton_cycle(g, cert):
                raise ContractError("assembly bug: certificate failed verification")
            return cert
        except SearchFailureError as exc:
            last_error = exc  # re-randomize the matchings and retry
    raise SearchFailureError(
        f"assembly failed after {attempts} matching redraws: {last_error}"
    )


def _merge_order(f: OneFactor) -> list[int]:
    order = []
    for cycle in f.cycles:
        order.extend(cycle)
    return order
