"""Density, regularity certification, and regular-pair algorithms.

A pair (A, B) is its own 0/1 biadjacency matrix, with row i for the i-th
vertex of A and column j for the j-th vertex of B; densities, degree floors
and audits are sums over it, and no digraph is kept with it.

Densities are exact rationals. Regularity certification has two modes:
exhaustive and sampled. The exhaustive audit is exact: it evaluates all row
subsets at once in integer NumPy arithmetic, and since it holds one row per
subset it stays capped at side 12. Sampled certification is one-sided:
refutations carry genuine witnesses, acceptance is only statistical
confidence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isqrt, lcm

import numpy as np

from .digraph import (
    BipartiteGraph,
    Digraph,
    HamiltonCertificate,
    _json_label,
    verify_hamilton_cycle,
)
from .errors import (
    ContractError,
    GenerationError,
    ParameterError,
    ScaleError,
    SearchFailureError,
)
from .matching import matching_or_violator

_EXHAUSTIVE_CAP = 12
_SAMPLES = 10_000
_RETRY_CAP = 100
_RESTART_BUDGET = 100


def _ceil_times_sqrt(coeff: int, eps: Fraction, m: int) -> int:
    """Smallest integer t with t >= coeff * sqrt(eps) * m, computed exactly.

    t >= coeff*sqrt(eps)*m  <=>  t^2 >= coeff^2 * eps * m^2 (for t >= 0).
    """
    target = coeff * coeff * eps * m * m
    # integer ceil of sqrt(target)
    num, den = target.numerator, target.denominator
    lo = isqrt(num // den)
    while Fraction(lo * lo) < target:
        lo += 1
    return lo


@dataclass(frozen=True, eq=False)
class Pair:
    """An ordered bipartite pair (A, B), direction A->B, held as its 0/1
    biadjacency: ``mat[i, j] = 1`` iff ``a[i] -> b[j]``.

    ``mat`` is stored as a read-only |A| x |B| int64 array. ``Pair.of``
    reads the pair off a digraph.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        if set(self.a) & set(self.b):
            raise ParameterError("pair sides must be disjoint")
        if len(set(self.a)) != len(self.a) or len(set(self.b)) != len(self.b):
            raise ParameterError("pair sides must not repeat vertices")
        mat = np.array(self.mat, dtype=np.int64)
        if mat.shape != (len(self.a), len(self.b)):
            raise ParameterError(
                f"pair matrix has shape {mat.shape}, sides have sizes "
                f"{len(self.a)} and {len(self.b)}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @classmethod
    def of(cls, g: Digraph, a, b) -> "Pair":
        """The pair (a, b) of digraph g, its matrix filled from g's edges."""
        a, b = tuple(a), tuple(b)
        for v in a + b:
            if not (0 <= v < g.n):
                raise ParameterError(f"vertex {v} out of range")
        out = g.out_sets
        flat = np.array([v in out[u] for u in a for v in b], dtype=np.int64)
        return cls(a, b, flat.reshape(len(a), len(b)))

    def edge_count(self) -> int:
        return int(self.mat.sum())

    def to_bipartite(self) -> BipartiteGraph:
        """The pair's edges, with row i for a[i] and column j for b[j]."""
        indptr = np.zeros(len(self.a) + 1, dtype=np.int64)
        np.cumsum(self.mat.sum(axis=1), out=indptr[1:])
        return BipartiteGraph(len(self.a), len(self.b), indptr, np.nonzero(self.mat)[1])


@dataclass(frozen=True)
class ClusterPartition:
    """Exceptional set V0 plus equal-size clusters V1..Vk."""

    v0: tuple[int, ...]
    clusters: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sizes = {len(c) for c in self.clusters}
        if len(sizes) > 1:
            raise ParameterError(f"clusters have unequal sizes {sorted(sizes)}")
        all_v = list(self.v0)
        for c in self.clusters:
            all_v.extend(c)
        if len(all_v) != len(set(all_v)):
            raise ParameterError("v0 and clusters must be pairwise disjoint")

    @property
    def k(self) -> int:
        return len(self.clusters)

    @property
    def m(self) -> int:
        return len(self.clusters[0]) if self.clusters else 0

    @property
    def n(self) -> int:
        return len(self.v0) + self.k * self.m

    def cluster_of(self) -> dict[int, int]:
        """vertex -> cluster index; v0 vertices absent."""
        return {v: i for i, c in enumerate(self.clusters) for v in c}

    def to_json(self) -> str:
        return json.dumps(
            {"v0": list(self.v0), "clusters": [list(c) for c in self.clusters]}
        )

    @classmethod
    def from_json(cls, text: str) -> "ClusterPartition":
        data = json.loads(text)
        return cls(
            tuple(_json_label(v) for v in data["v0"]),
            tuple(tuple(_json_label(v) for v in c) for c in data["clusters"]),
        )


@dataclass(frozen=True)
class ReducedDigraph:
    """Digraph on cluster indices with exact pair densities attached."""

    base: Digraph
    densities: tuple[tuple[Fraction, ...], ...]
    eps: Fraction
    d: Fraction

    @property
    def k(self) -> int:
        return self.base.n

    def density_of(self, i: int, j: int) -> Fraction:
        return self.densities[i][j]


@dataclass(frozen=True)
class RegularityVerdict:
    mode: str  # "exhaustive" | "sampled"
    regular: bool
    worst_deviation: Fraction
    witness: dict | None = None


def density(p: Pair) -> Fraction:
    if not p.a or not p.b:
        raise ParameterError("density undefined for an empty pair side")
    return Fraction(p.edge_count(), len(p.a) * len(p.b))


def _exhaustive_regularity(p: Pair, eps: Fraction) -> RegularityVerdict:
    """Worst |d(X,Y) - d(A,B)| over all qualifying (X, Y), in integers.

    Every row subset X is one row of a 0/1 selector matrix, so one product
    gives the column counts of all of them. For each X and size |Y| the
    extreme Y take the |Y| largest or smallest counts: prefix sums of the
    counts sorted in descending order (stable, so ties go to the lower
    column). With e edges, the deviation of the densest Y is
    hi/(sx*sy*na*nb) with hi = prefix[sy]*na*nb - e*sx*sy, and of the
    sparsest lo/(sx*sy*na*nb) likewise.
    """
    na, nb = len(p.a), len(p.b)
    density(p)  # rejects an empty side
    mat = p.mat
    e = int(mat.sum())
    min_x = max(1, ceil(eps * na))
    min_y = max(1, ceil(eps * nb))
    masks = np.arange(1, 1 << na, dtype=np.int64)[:, None]
    select = (masks >> np.arange(na)) & 1  # one row per subset, ascending mask
    select = select[select.sum(axis=1) >= min_x]
    sx = select.sum(axis=1)
    counts = select @ mat
    order = np.argsort(-counts, axis=1, kind="stable")
    prefix = np.zeros((len(select), nb + 1), dtype=np.int64)
    np.cumsum(np.take_along_axis(counts, order, axis=1), axis=1, out=prefix[:, 1:])
    sy = np.arange(min_y, nb + 1, dtype=np.int64)
    area = sx[:, None] * sy[None, :]
    hi = prefix[:, sy] * (na * nb) - e * area
    lo = e * area - (prefix[:, nb:] - prefix[:, nb - sy]) * (na * nb)
    num = np.maximum(hi, lo)
    # Compare the deviations num/(sx*sy*na*nb) exactly: times the common
    # denominator lcm(1..na)*lcm(1..nb)*na*nb each is the integer
    # num*(lcm(1..na)/sx)*(lcm(1..nb)/sy) <= na*nb*lcm(1..na)*lcm(1..nb),
    # at most 144*27720**2 < 2**63 at the side cap of 12. argmax takes the
    # first maximum in (mask, sy) order: the one a scan that keeps only
    # strictly worse deviations would report.
    scale_x = lcm(*range(1, na + 1)) // sx
    scale_y = lcm(*range(1, nb + 1)) // sy
    scaled = num * (scale_x[:, None] * scale_y[None, :])
    row, col = np.unravel_index(int(np.argmax(scaled)), scaled.shape)
    worst = Fraction(int(num[row, col]), int(area[row, col]) * na * nb)
    if worst < eps:
        return RegularityVerdict("exhaustive", True, worst, None)
    size = int(sy[col])
    if hi[row, col] >= lo[row, col]:
        y_cols = order[row, :size]
    else:
        y_cols = order[row, nb - size:]
    witness = {
        "x": [p.a[i] for i in np.flatnonzero(select[row])],
        "y": [p.b[j] for j in sorted(int(c) for c in y_cols)],
        "deviation": str(worst),
    }
    return RegularityVerdict("exhaustive", False, worst, witness)


def _sampled_regularity(
    p: Pair, eps: Fraction, samples: int, seed: int
) -> RegularityVerdict:
    na, nb = len(p.a), len(p.b)
    dens = density(p)
    mat = p.mat
    min_x = max(1, ceil(eps * na))
    min_y = max(1, ceil(eps * nb))
    rng = np.random.default_rng(seed)
    worst = Fraction(0)
    witness = None
    sizes_x = rng.integers(min_x, na + 1, size=samples)
    sizes_y = rng.integers(min_y, nb + 1, size=samples)
    for t in range(samples):
        sx, sy = int(sizes_x[t]), int(sizes_y[t])
        ix = rng.choice(na, size=sx, replace=False)
        iy = rng.choice(nb, size=sy, replace=False)
        count = int(mat[np.ix_(ix, iy)].sum())
        dev = abs(Fraction(count, sx * sy) - dens)
        if dev > worst:
            worst = dev
            witness = {
                "x": sorted(p.a[i] for i in ix),
                "y": sorted(p.b[j] for j in iy),
                "deviation": str(dev),
            }
    regular = worst < eps
    return RegularityVerdict("sampled", regular, worst, None if regular else witness)


def _check_eps(eps) -> Fraction:
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ParameterError(f"eps must be in (0, 1], got {eps}")
    return eps


def certify_regular(
    p: Pair, eps, mode: str = "auto", samples: int = _SAMPLES, seed: int = 0
) -> RegularityVerdict:
    """Certify |d(X,Y) - d(A,B)| < eps over all qualifying sub-pairs.

    Exhaustive mode is exact and requires both sides <= 12; sampled mode
    draws uniformly random qualifying (X, Y) pairs.
    """
    eps = _check_eps(eps)
    if mode == "auto":
        mode = (
            "exhaustive"
            if len(p.a) <= _EXHAUSTIVE_CAP and len(p.b) <= _EXHAUSTIVE_CAP
            else "sampled"
        )
    if mode == "exhaustive":
        if len(p.a) > _EXHAUSTIVE_CAP or len(p.b) > _EXHAUSTIVE_CAP:
            raise ScaleError(
                f"exhaustive certification capped at side {_EXHAUSTIVE_CAP}"
            )
        return _exhaustive_regularity(p, eps)
    if mode == "sampled":
        return _sampled_regularity(p, eps, samples, seed)
    raise ParameterError(f"unknown mode {mode!r}")


def certify_super_regular(
    p: Pair, eps, d, mode: str = "auto", samples: int = _SAMPLES, seed: int = 0
) -> RegularityVerdict:
    """Regularity plus per-vertex degree floors d|B| and d|A| both directions.

    The first vertex below its floor, A before B, is the witness."""
    _check_eps(eps)
    d = Fraction(d)
    for side, vertices, degrees, floor in (
        ("a", p.a, p.mat.sum(axis=1), d * len(p.b)),
        ("b", p.b, p.mat.sum(axis=0), d * len(p.a)),
    ):
        low = np.flatnonzero(degrees < ceil(floor))  # integer degrees
        if low.size:
            i = int(low[0])
            return RegularityVerdict(
                "exhaustive",
                False,
                Fraction(0),
                {"vertex": vertices[i], "side": side, "degree": int(degrees[i]),
                 "floor": str(floor)},
            )
    return certify_regular(p, eps, mode=mode, samples=samples, seed=seed)


def regular_pair_matching(p: Pair, eps, super_regular: bool = False):
    """A matching of size >= (1-eps)n in an asserted (eps,2eps)-regular pair.

    With super-regularity asserted the matching must be perfect. A
    shortfall means the assertion was false; the defect-Hall violating
    set is attached to the raised error.
    """
    eps = _check_eps(eps)
    n = len(p.a)
    if len(p.b) != n:
        raise ParameterError("regular_pair_matching needs |A| = |B|")
    b = p.to_bipartite()
    required = n if super_regular else ceil((1 - eps) * n)
    matching, violator = matching_or_violator(b, n - required)
    if violator is not None:
        raise ContractError(
            f"matching size {matching.size()} below required {required}: "
            "the regularity assertion on this pair is false",
            witness=sorted(p.a[i] for i in violator) if violator else None,
        )
    return matching


def make_super_regular(
    g: Digraph, part: ClusterPartition, r: ReducedDigraph, h: Digraph, eps, d
) -> ClusterPartition:
    """Move exactly ceil(Delta*eps*m) vertices per cluster into V0.

    Delta is the maximum total h-degree of a cluster. The moved set must
    contain every vertex with fewer than (d-eps)m neighbors toward some
    h-neighbor cluster; afterwards h-edges are super-regular at the
    degraded parameters (certified in tests at desk scale).
    """
    eps, d = Fraction(eps), Fraction(d)
    m = part.m
    k = part.k
    if h.n != k or r.k != k:
        raise ParameterError("h and r must live on the partition's clusters")
    delta = max(
        (h.out_degree(i) + h.in_degree(i) for i in range(k)), default=0
    )
    if delta * eps > Fraction(1, 2):
        raise ParameterError(f"need Delta*eps <= 1/2, got {delta * eps}")
    quota = ceil(Fraction(delta) * eps * m)
    threshold = (d - eps) * m

    def low(i: int, v: int) -> bool:
        return any(
            len(g.out_sets[v] & set(part.clusters[j])) < threshold
            for j in h.out_adj[i]
        ) or any(
            len(g.in_sets[v] & set(part.clusters[j])) < threshold
            for j in h.in_adj[i]
        )

    return _move_quota_to_v0(
        part, quota, low, "low-degree", "regularity assertion false"
    )


def _move_quota_to_v0(
    part: ClusterPartition, quota: int, is_bad, kind: str, verdict: str
) -> ClusterPartition:
    """Move exactly ``quota`` vertices of each cluster into V0.

    Every vertex v of cluster i with ``is_bad(i, v)`` moves; the quota is
    topped up with the lowest-id vertices. A cluster with more than
    ``quota`` bad vertices raises a ContractError whose witness lists them.
    """
    new_clusters = []
    moved: list[int] = []
    for i, cluster in enumerate(part.clusters):
        bad = [v for v in cluster if is_bad(i, v)]
        if len(bad) > quota:
            raise ContractError(
                f"cluster {i} has {len(bad)} {kind} vertices, quota {quota}: {verdict}",
                witness=bad,
            )
        drop = set(bad)
        for v in cluster:
            if len(drop) >= quota:
                break
            drop.add(v)
        moved.extend(sorted(drop))
        new_clusters.append(tuple(v for v in cluster if v not in drop))
    return ClusterPartition(part.v0 + tuple(moved), tuple(new_clusters))


def select_ideal(
    p: Pair, theta, eps, d, seed: int = 0
) -> tuple[set[int], set[int]]:
    """Random (A*, B*) of size ceil(theta*n) meeting the theta*d*n/4 floor.

    Every A-vertex must keep at least theta*d*n/4 out-neighbors in B* and
    every B-vertex that many in-neighbors in A*; redraw until both hold.
    """
    theta, d = Fraction(theta), Fraction(d)
    if not 0 < theta <= 1:
        raise ParameterError(f"theta must be in (0, 1], got {theta}")
    _check_eps(eps)
    n = max(len(p.a), len(p.b))
    size = ceil(theta * n)
    if size > min(len(p.a), len(p.b)):
        raise ParameterError("ideal size exceeds a pair side")
    floor = ceil(theta * d * n / 4)  # integer degrees meet it iff they meet its ceiling
    rng = np.random.default_rng(seed)
    for _ in range(_RETRY_CAP):
        rows = rng.choice(len(p.a), size=size, replace=False)
        cols = rng.choice(len(p.b), size=size, replace=False)
        if (p.mat.take(cols, axis=1).sum(axis=1) >= floor).all() and (
            p.mat.take(rows, axis=0).sum(axis=0) >= floor
        ).all():
            return {p.a[i] for i in rows}, {p.b[j] for j in cols}
    raise GenerationError(
        f"ideal redraw budget ({_RETRY_CAP}) exhausted at theta={theta}"
    )


def _cycle_insertion(g: Digraph, rng, restarts: int) -> list[int] | None:
    """Grow a directed cycle by inserting outside vertices between
    consecutive cycle vertices; restart on dead ends, at most ``restarts``
    times. Effective on dense digraphs, where a random consecutive pair
    admits an insertion w.h.p."""
    n = g.n
    for _ in range(restarts):
        seed_cycle = None
        perm = rng.permutation(n)
        for u in perm:
            u = int(u)
            two = [v for v in g.out_adj[u] if g.has_edge(v, u)]
            if two:
                seed_cycle = [u, two[int(rng.integers(len(two)))]]
                break
            for v in g.out_adj[u]:
                tri = [w for w in g.out_adj[v] if w != u and g.has_edge(w, u)]
                if tri:
                    seed_cycle = [u, v, tri[int(rng.integers(len(tri)))]]
                    break
            if seed_cycle:
                break
        if seed_cycle is None:
            return None
        cycle = seed_cycle
        on_cycle = [False] * n
        for v in cycle:
            on_cycle[v] = True
        outside = [v for v in range(n) if not on_cycle[v]]
        rng.shuffle(outside)
        progress = True
        while outside and progress:
            progress = False
            remaining = []
            for v in outside:
                placed = False
                length = len(cycle)
                offset = int(rng.integers(length))
                for t in range(length):
                    i = (offset + t) % length
                    x, y = cycle[i], cycle[(i + 1) % length]
                    if g.has_edge(x, v) and g.has_edge(v, y):
                        cycle.insert(i + 1, v)
                        on_cycle[v] = True
                        placed = progress = True
                        break
                if not placed:
                    remaining.append(v)
            outside = remaining
        if not outside:
            return cycle
    return None


def hamilton_in_super_regular(
    g: Digraph, eps, d, restarts: int = _RESTART_BUDGET, seed: int = 0
) -> HamiltonCertificate:
    """Hamilton cycle in an asserted super-regular digraph.

    Exact subset DP up to n=18; above, randomized cycle-insertion from at
    most ``restarts`` fresh starting cycles. The result depends only on
    ``(g, restarts, seed)``.
    """
    from .oracle import brute_force_hamiltonian

    if g.n <= 18:
        cert = brute_force_hamiltonian(g)
        if cert is None:
            raise ContractError(
                "digraph is not Hamiltonian: super-regularity assertion false"
            )
        return cert
    rng = np.random.default_rng(seed)
    order = _cycle_insertion(g, rng, restarts)
    if order is None:
        raise SearchFailureError(
            f"no Hamilton cycle found within {restarts} restarts (n={g.n}); "
            "this does not prove nonexistence"
        )
    cert = HamiltonCertificate(tuple(order))
    if not verify_hamilton_cycle(g, cert):
        raise ContractError("insertion certificate is not a Hamilton cycle", cert)
    return cert


def cluster_pair(g: Digraph, part: ClusterPartition, i: int, j: int) -> Pair:
    return Pair.of(g, part.clusters[i], part.clusters[j])


def build_reduced(
    g: Digraph, part: ClusterPartition, eps, d, seed: int = 0
) -> ReducedDigraph:
    """Cluster digraph with an edge wherever the pair is dense and regular."""
    eps, d = Fraction(eps), Fraction(d)
    k = part.k
    densities = [[Fraction(0)] * k for _ in range(k)]
    edges = []
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            p = cluster_pair(g, part, i, j)
            dens = density(p)
            densities[i][j] = dens
            if dens >= d:
                verdict = certify_regular(p, eps, mode="auto", seed=seed)
                if verdict.regular:
                    edges.append((i, j))
    return ReducedDigraph(
        Digraph(k, edges), tuple(tuple(row) for row in densities), eps, d
    )


def prune_atypical(
    g: Digraph, part: ClusterPartition, r: ReducedDigraph, eps, dprime
) -> ClusterPartition:
    """Move exactly ceil(16*sqrt(eps)*m) vertices per cluster into V0.

    After conceptually deleting pairs of density < d', a remaining vertex
    must see between (1/2)d_XY*m and (3/2)d_XY*m neighbors in all but at
    most sqrt(eps)*k clusters, in both directions. Atypical vertices are
    moved first; the quota is topped up with the lowest-id vertices.
    """
    eps, dprime = Fraction(eps), Fraction(dprime)
    m, k = part.m, part.k
    quota = _ceil_times_sqrt(16, eps, m)
    if quota > m:
        raise ParameterError(f"quota {quota} exceeds cluster size {m}")
    slack = _ceil_times_sqrt(1, eps, k)  # clusters allowed outside the window
    dense_out = [
        [j for j in range(k) if j != i and r.density_of(i, j) >= dprime]
        for i in range(k)
    ]
    dense_in = [
        [j for j in range(k) if j != i and r.density_of(j, i) >= dprime]
        for i in range(k)
    ]
    cluster_sets = [set(c) for c in part.clusters]

    def atypical(i: int, v: int) -> bool:
        bad_out = 0
        for j in dense_out[i]:
            deg = len(g.out_sets[v] & cluster_sets[j])
            dxy = r.density_of(i, j)
            if not dxy * m / 2 <= deg <= 3 * dxy * m / 2:
                bad_out += 1
        bad_in = 0
        for j in dense_in[i]:
            deg = len(g.in_sets[v] & cluster_sets[j])
            dxy = r.density_of(j, i)
            if not dxy * m / 2 <= deg <= 3 * dxy * m / 2:
                bad_in += 1
        return bad_out > slack or bad_in > slack

    return _move_quota_to_v0(
        part, quota, atypical, "atypical", "regularity inputs invalid"
    )


def sample_hypergeometric(n: int, m: int, k: int, seed: int = 0) -> int:
    """One draw: marked balls among k drawn from n with m marked, no replacement."""
    if not (0 <= m <= n and 0 <= k <= n):
        raise ParameterError(f"need 0 <= m,k <= n, got n={n}, m={m}, k={k}")
    rng = np.random.default_rng(seed)
    return int(rng.hypergeometric(m, n - m, k))


def chernoff_audit(
    n: int, m: int, k: int, trials: int, a, seed: int = 0
) -> tuple[float, float]:
    """Empirical two-sided tail P(|X - EX| >= a*EX) vs the 2e^{-a^2 EX/3} bound."""
    a = Fraction(a)
    if not 0 < a < Fraction(3, 2):
        raise ParameterError(f"need 0 < a < 3/2, got {a}")
    if not (0 <= m <= n and 0 <= k <= n):
        raise ParameterError(f"need 0 <= m,k <= n, got n={n}, m={m}, k={k}")
    if trials < 1:
        raise ParameterError("need at least one trial")
    ex = Fraction(k * m, n) if n else Fraction(0)
    rng = np.random.default_rng(seed)
    draws = rng.hypergeometric(m, n - m, k, size=trials)
    dev = np.abs(draws - float(ex))
    empirical = float(np.count_nonzero(dev >= float(a * ex))) / trials
    bound = float(2 * np.exp(-float(a * a * ex) / 3))
    return empirical, bound
