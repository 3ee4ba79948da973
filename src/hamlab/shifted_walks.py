"""Shifted walks over a 1-factor, the auxiliary shifted digraph, walk
accounting, disjoint-walk extraction, and the separator-driven component
decomposition used when the shifted digraph is not highly connected.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

import numpy as np

from .digraph import Digraph, OneFactor
from .errors import (
    ContractError,
    ParameterError,
    UnreachableError,
    WrongPipelineError,
)
from .matching import (
    find_separator,
    internally_disjoint_paths,
    is_strongly_k_connected,
)


@dataclass(frozen=True)
class ShiftedWalk:
    """A walk a -> b alternating full factor-cycle traversals with host
    edges from a cycle-predecessor to the next entry cluster.

    ``entries`` is (X_1, ..., X_{t+1}) with X_1 = a and X_{t+1} = b; the
    i-th traversed cycle is the factor cycle of X_i, left via the edge
    pred(X_i) -> X_{i+1}.
    """

    entries: tuple[int, ...]
    factor: OneFactor

    def __post_init__(self):
        if not self.entries:
            raise ParameterError("a shifted walk needs at least one entry")

    @property
    def a(self) -> int:
        return self.entries[0]

    @property
    def b(self) -> int:
        return self.entries[-1]

    @property
    def t(self) -> int:
        """Number of traversed cycles."""
        return len(self.entries) - 1

    def validate(self, host: Digraph) -> None:
        """Every connecting edge pred(X_i) -> X_{i+1} must lie in host."""
        for i in range(self.t):
            exit_cluster = self.factor.predecessor(self.entries[i])
            nxt = self.entries[i + 1]
            if not host.has_edge(exit_cluster, nxt):
                raise ParameterError(
                    f"connecting edge ({exit_cluster},{nxt}) missing from host"
                )

    def cluster_sequence(self) -> list[int]:
        """The full visited sequence X_1 C_1 X_1^- X_2 ... X_t^- X_{t+1}."""
        seq: list[int] = []
        for i in range(self.t):
            v = self.entries[i]
            while True:
                seq.append(v)
                v = self.factor.successor(v)
                if v == self.entries[i]:
                    break
        seq.append(self.entries[-1])
        return seq

    def exits(self) -> tuple[int, ...]:
        """(X_1^-, ..., X_t^-)."""
        return tuple(self.factor.predecessor(x) for x in self.entries[:-1])

    def internal_clusters(self) -> set[int]:
        """Clusters in {X_2, X_2^-, ..., X_t, X_t^-}."""
        inner = self.entries[1:-1]
        return set(inner) | {self.factor.predecessor(x) for x in inner}

    def concat(self, other: "ShiftedWalk") -> "ShiftedWalk":
        if self.b != other.a:
            raise ParameterError("walk endpoints do not chain")
        return ShiftedWalk(self.entries + other.entries[1:], self.factor)


@dataclass(frozen=True)
class WalkUsage:
    uses: Counter
    entrance_uses: Counter
    exit_uses: Counter
    internal_uses: Counter

    @property
    def total_uses(self) -> int:
        return sum(self.uses.values())


def build_H(r: Digraph, f: OneFactor) -> Digraph:
    """The shifted digraph: edge a -> b iff r has pred(a) -> b, loops dropped.

    Equivalently, a -> b iff there is a one-cycle shifted walk a -> b.
    """
    if f.n != r.n:
        raise ParameterError("factor and host must share the vertex set")
    # row a of H is row pred(a) of r, gathered from r's CSR: the i-th
    # entry of that row sits at r.indptr[pred(a)] + i
    pred = np.array(f.pred, dtype=np.int64)
    counts = np.diff(r.indptr)[pred]
    tails = np.repeat(np.arange(r.n), counts)
    offsets = np.arange(len(tails)) - np.repeat(np.cumsum(counts) - counts, counts)
    heads = r.indices[np.repeat(r.indptr[pred], counts) + offsets]
    keep = heads != tails
    return Digraph.from_arrays(r.n, tails[keep], heads[keep])


def find_shifted_walk(
    r: Digraph, f: OneFactor, h: Digraph, a: int, b: int, forbidden=()
) -> ShiftedWalk:
    """Shortest shifted walk a -> b (by traversed cycles) via BFS in the
    shifted digraph h = build_H(r, f), avoiding internal use of
    ``forbidden`` clusters. h is passed in so that a caller finding many
    walks over one (r, f) builds it once."""
    if h.n != r.n:
        raise ParameterError("shifted digraph and host must share the vertex set")
    forbidden = set(forbidden)
    if a in forbidden or b in forbidden:
        raise ParameterError("forbidden set must exclude the endpoints")
    if a == b:
        return ShiftedWalk((a,), f)

    def blocked(v: int) -> bool:
        # v would be an internal entrance X_i, and pred(v) an internal exit
        return v in forbidden or f.predecessor(v) in forbidden

    parent = {a: -1}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for v in h.out_adj[u]:
            if v in parent:
                continue
            if v == b:
                path = [b]
                while path[-1] != a:
                    path.append(parent[path[-1]] if path[-1] != b else u)
                path.reverse()
                walk = ShiftedWalk(tuple(path), f)
                walk.validate(r)
                return walk
            if blocked(v):
                continue
            parent[v] = u
            queue.append(v)
    raise UnreachableError(f"no shifted walk from {a} to {b}")


def shorten_walk(w: ShiftedWalk) -> ShiftedWalk:
    """Remove repeated entrance/exit uses by segment deletion; idempotent.

    A cluster repeated among the entries at positions p < q lets the walk
    skip the whole segment between the two occurrences.
    """
    entries = list(w.entries)
    changed = True
    while changed:
        changed = False
        first_at: dict[int, int] = {}
        for pos, x in enumerate(entries):
            if x in first_at:
                p = first_at[x]
                entries = entries[: p + 1] + entries[pos + 1:]
                changed = True
                break
            first_at[x] = pos
    return ShiftedWalk(tuple(entries), w.factor)


def account(walks) -> WalkUsage:
    """Exact use/entrance/exit/internal accounting over one or many walks."""
    if isinstance(walks, ShiftedWalk):
        walks = [walks]
    entrance: Counter = Counter()
    exit_c: Counter = Counter()
    internal: Counter = Counter()
    for w in walks:
        for x in w.entries[1:]:
            entrance[x] += 1
        for x in w.exits():
            exit_c[x] += 1
        inner = w.entries[1:-1]
        for x in inner:
            internal[x] += 1
            internal[w.factor.predecessor(x)] += 1
    uses = entrance + exit_c
    return WalkUsage(
        uses=uses,
        entrance_uses=entrance,
        exit_uses=exit_c,
        internal_uses=internal,
    )


def disjoint_shifted_walks(
    r: Digraph, f: OneFactor, a: int, b: int, c
) -> list[ShiftedWalk]:
    """Many short shifted walks a -> b with pairwise disjoint internal use.

    Requires the shifted digraph strongly ceil(c*k)-connected; yields at
    least ceil(c^2 k/16) walks, each traversing at most 2/c cycles, built
    from internally disjoint paths with greedy conflict elimination.
    """
    c = Fraction(c)
    if not 0 < c <= 1:
        raise ParameterError(f"need 0 < c <= 1, got {c}")
    if a == b:
        raise ParameterError("endpoints must differ")
    h = build_H(r, f)
    k = h.n
    ck = ceil(c * k)
    sep = find_separator(h, ck)
    if sep is not None or h.n <= ck:
        raise ContractError(
            f"shifted digraph is not strongly {ck}-connected",
            witness=sorted(sep) if sep is not None else None,
        )
    paths = internally_disjoint_paths(h, a, b, ck)
    max_t = 2 / c
    short = [p for p in paths if Fraction(len(p) - 1) <= max_t]
    short.sort(key=lambda p: (len(p), p))
    chosen: list[ShiftedWalk] = []
    used_internal: set[int] = set()
    for p in short:
        walk = ShiftedWalk(tuple(p), f)
        inner = walk.internal_clusters()
        if inner & used_internal:
            continue
        walk.validate(r)
        chosen.append(walk)
        used_internal |= inner
    needed = ceil(c * c * k / 16)
    if len(chosen) < needed:
        raise ContractError(
            f"only {len(chosen)} disjoint walks found, needed {needed}"
        )
    return chosen


@dataclass(frozen=True)
class ComponentDecomposition:
    s: frozenset
    c: frozenset
    d: frozenset
    c_small: frozenset
    d_small: frozenset
    left: frozenset
    right: frozenset
    m_v: frozenset
    top: frozenset
    m_h: frozenset
    bottom: frozenset
    m_v_lr: frozenset
    m_v_rl: frozenset
    m_h_lr: frozenset
    m_h_rl: frozenset
    params: dict = field(default_factory=dict)

    @property
    def c_prime(self) -> frozenset:
        return self.c - self.c_small

    @property
    def d_prime(self) -> frozenset:
        return self.d - self.d_small


def decompose_components(
    h: Digraph, f: OneFactor, eta, eta_prime, beta
) -> ComponentDecomposition:
    """The separator-driven decomposition of the shifted digraph.

    Only applicable when h is NOT strongly ceil(eta*k)-connected;
    otherwise the highly connected pipeline should be used and a
    wrong-pipeline error is raised.
    """
    eta, eta_prime, beta = Fraction(eta), Fraction(eta_prime), Fraction(beta)
    k = h.n
    threshold = ceil(eta * k)
    sep = find_separator(h, threshold)
    if sep is None:
        raise WrongPipelineError(
            f"shifted digraph is strongly {threshold}-connected; "
            "use the highly connected pipeline"
        )
    s = frozenset(sep)
    # find a disconnected pair (x, y) in h - s, then split by reachability of y
    rest = [v for v in range(k) if v not in s]
    restricted = {v: [w for w in h.out_adj[v] if w not in s] for v in rest}
    witness = None
    for x in rest:
        seen = {x}
        queue = deque([x])
        while queue:
            u = queue.popleft()
            for w in restricted[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        unreached = [y for y in rest if y not in seen]
        if unreached:
            witness = (x, unreached[0])
            break
    if witness is None:
        raise ContractError(
            "separator did not disconnect any pair", witness=sorted(s)
        )
    _, y = witness
    reaches_y = {y}
    stack = [y]
    in_restricted = {
        v: [w for w in h.in_adj[v] if w not in s] for v in rest
    }
    while stack:
        u = stack.pop()
        for w in in_restricted[u]:
            if w not in reaches_y:
                reaches_y.add(w)
                stack.append(w)
    d = frozenset(reaches_y)
    c = frozenset(v for v in rest if v not in d)

    small_cut = beta * k / 10
    c_small = frozenset(
        v for v in c if len(h.in_sets[v] & c) <= small_cut
    )
    d_small = frozenset(
        v for v in d if len(h.out_sets[v] & d) <= small_cut
    )
    c_prime = c - c_small
    d_prime = d - d_small
    s_prime = s | c_small | d_small

    cut = eta_prime * k
    left = set(c_prime)
    remaining = []
    for v in sorted(s_prime):
        if (
            len(h.out_sets[v] & c_prime) >= cut
            and len(h.in_sets[v] & c_prime) >= cut
        ):
            left.add(v)
        else:
            remaining.append(v)
    right = set(d_prime)
    m_v = set()
    for v in remaining:
        if (
            len(h.out_sets[v] & d_prime) >= cut
            and len(h.in_sets[v] & d_prime) >= cut
        ):
            right.add(v)
        else:
            m_v.add(v)

    top = frozenset(v for v in range(k) if f.successor(v) in left)
    m_h = frozenset(v for v in range(k) if f.successor(v) in m_v)
    bottom = frozenset(v for v in range(k) if f.successor(v) in right)

    m_v_lr, m_v_rl = set(), set()
    for v in sorted(m_v):
        lr = (
            len(h.out_sets[v] & c_prime) < cut
            and len(h.in_sets[v] & d_prime) < cut
        )
        rl = (
            len(h.out_sets[v] & d_prime) < cut
            and len(h.in_sets[v] & c_prime) < cut
        )
        # the degree dichotomy says exactly one holds; fall back to LR on ties
        if lr or not rl:
            m_v_lr.add(v)
        else:
            m_v_rl.add(v)
    m_h_lr = frozenset(v for v in range(k) if f.successor(v) in m_v_lr)
    m_h_rl = frozenset(v for v in range(k) if f.successor(v) in m_v_rl)

    return ComponentDecomposition(
        s=s,
        c=c,
        d=d,
        c_small=c_small,
        d_small=d_small,
        left=frozenset(left),
        right=frozenset(right),
        m_v=frozenset(m_v),
        top=top,
        m_h=m_h,
        bottom=bottom,
        m_v_lr=frozenset(m_v_lr),
        m_v_rl=frozenset(m_v_rl),
        m_h_lr=m_h_lr,
        m_h_rl=m_h_rl,
        params={"eta": str(eta), "eta_prime": str(eta_prime), "beta": str(beta)},
    )


@dataclass(frozen=True)
class BoundCheck:
    name: str
    holds: bool
    margin: Fraction


def verify_decomposition_bounds(
    dec: ComponentDecomposition, h: Digraph, f: OneFactor, seed: int = 0
) -> tuple[BoundCheck, ...]:
    """Report-only margin checks for the decomposition's size, degree,
    connectivity and expansion bounds."""
    eta = Fraction(dec.params["eta"])
    eta_prime = Fraction(dec.params["eta_prime"])
    beta = Fraction(dec.params["beta"])
    k = h.n
    checks: list[BoundCheck] = []

    tol = 2 * eta * k
    for name, size in (("CDsize-C", len(dec.c)), ("CDsize-D", len(dec.d))):
        margin = tol - abs(Fraction(size) - Fraction(k, 2))
        checks.append(BoundCheck(name, margin >= 0, margin))
    for name, size in (
        ("small-C", len(dec.c_small)),
        ("small-D", len(dec.d_small)),
    ):
        margin = 8 * eta * k - size
        checks.append(BoundCheck(name, margin >= 0, margin))

    for name, vertices, req in (
        ("CDconnectivity-C", dec.c_prime, eta_prime * k),
        ("CDconnectivity-D", dec.d_prime, eta_prime * k),
        ("propRL-L", dec.left, eta_prime * k / 2),
        ("propRL-R", dec.right, eta_prime * k / 2),
    ):
        sub = h.induced_subdigraph(vertices)
        req_int = ceil(req)
        ok = is_strongly_k_connected(sub, req_int)
        checks.append(
            BoundCheck(name, ok, Fraction(1 if ok else -1))
        )

    cut = 2 * eta_prime * k
    big = beta * k / 3
    margin = None
    ok = True
    for group, near, far in (
        (dec.m_v_lr, (dec.left, dec.right), (dec.right, dec.left)),
        (dec.m_v_rl, (dec.right, dec.left), (dec.left, dec.right)),
    ):
        for v in group:
            small_out = len(h.out_sets[v] & near[0])
            small_in = len(h.in_sets[v] & near[1])
            big_out = len(h.out_sets[v] & far[0])
            big_in = len(h.in_sets[v] & far[1])
            cur = min(
                cut - small_out - 1,
                cut - small_in - 1,
                Fraction(big_out) - big,
                Fraction(big_in) - big,
            )
            if margin is None or cur < margin:
                margin = cur
            ok = ok and cur >= 0
    if margin is None:
        checks.append(BoundCheck("LRandRLmiddle", True, Fraction(0)))
    else:
        checks.append(BoundCheck("LRandRLmiddle", ok, margin))

    rng = np.random.default_rng(seed)
    limit = (1 - beta) * k / 2
    worst = None
    for _ in range(200):
        size = int(rng.integers(1, max(2, int(limit) + 1)))
        if Fraction(size) > limit:
            continue
        x = set(int(v) for v in rng.choice(k, size=size, replace=False))
        for direction in ("out", "in"):
            nbhd = h.neighborhood(x, direction)
            margin = Fraction(len(nbhd)) - (len(x) + beta * k / 4)
            if worst is None or margin < worst:
                worst = margin
    if worst is None:
        worst = Fraction(0)
    checks.append(BoundCheck("boundexpand-sampled", worst >= 0, worst))
    return tuple(checks)
