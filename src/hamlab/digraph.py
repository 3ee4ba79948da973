"""Core digraph, bipartite-graph, 1-factor and certificate types.

Vertices are dense 0-indexed integers. Digraphs are loop-free with at most
one edge per ordered pair (2-cycles are allowed). All types are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from math import ceil

import numpy as np

from .errors import MalformedCertificateError, ParameterError


class Digraph:
    """Loop-free digraph with sorted adjacency lists.

    ``in_adj`` is maintained as the exact transpose of ``out_adj``.
    """

    __slots__ = ("n", "out_adj", "in_adj", "out_sets", "in_sets", "_edge_count")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ParameterError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        out: list[list[int]] = [[] for _ in range(n)]
        inn: list[list[int]] = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            if (u, v) in seen:
                # duplicates are rejected, not silently deduplicated:
                # they usually indicate a generator bug
                raise ParameterError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            out[u].append(v)
            inn[v].append(u)
        self.out_adj = tuple(tuple(sorted(a)) for a in out)
        self.in_adj = tuple(tuple(sorted(a)) for a in inn)
        self.out_sets = tuple(frozenset(a) for a in self.out_adj)
        self.in_sets = tuple(frozenset(a) for a in self.in_adj)
        self._edge_count = len(seen)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def complete(cls, n: int) -> "Digraph":
        return cls(n, [(u, v) for u in range(n) for v in range(n) if u != v])

    @classmethod
    def directed_cycle(cls, n: int) -> "Digraph":
        if n < 2:
            raise ParameterError("a directed cycle needs at least 2 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def directed_path(cls, n: int) -> "Digraph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    # -- basic queries --------------------------------------------------------

    def edge_count(self) -> int:
        return self._edge_count

    def edges(self) -> list[tuple[int, int]]:
        """All edges in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in self.out_adj[u]]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.out_sets[u]

    def out_degree(self, v: int) -> int:
        return len(self.out_adj[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_adj[v])

    def min_out_degree(self) -> int:
        return min((len(a) for a in self.out_adj), default=0)

    def min_in_degree(self) -> int:
        return min((len(a) for a in self.in_adj), default=0)

    def min_semidegree(self) -> int:
        return min(self.min_out_degree(), self.min_in_degree())

    def __eq__(self, other):
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.out_adj == other.out_adj
        )

    def __hash__(self):
        return hash((self.n, self.out_adj))

    def __repr__(self):
        return f"Digraph(n={self.n}, edges={self._edge_count})"

    # -- restriction / deletion / neighborhoods -------------------------------

    def _check_vertex_set(self, a):
        for v in a:
            if not (0 <= v < self.n):
                raise ParameterError(f"vertex {v} out of range for n={self.n}")

    def induced_subdigraph(self, a) -> "Digraph":
        """Restriction G[A]; vertices are relabeled by sorted position in A."""
        a = sorted(set(a))
        self._check_vertex_set(a)
        index = {v: i for i, v in enumerate(a)}
        edges = [
            (index[u], index[v])
            for u in a
            for v in self.out_adj[u]
            if v in index
        ]
        return Digraph(len(a), edges)

    def remove_vertices(self, a) -> "Digraph":
        """G with the vertex set A deleted (i.e. G[V \\ A], relabeled)."""
        a = set(a)
        self._check_vertex_set(a)
        return self.induced_subdigraph(set(range(self.n)) - a)

    def neighborhood(self, a, direction: str = "out") -> set[int]:
        """Union of out- (or in-) neighborhoods over the vertex set A."""
        self._check_vertex_set(a)
        if direction not in ("out", "in"):
            raise ParameterError(f"direction must be 'out' or 'in', got {direction!r}")
        adj = self.out_sets if direction == "out" else self.in_sets
        result: set[int] = set()
        for v in a:
            result |= adj[v]
        return result

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": self.edges()})

    @classmethod
    def from_json(cls, text: str) -> "Digraph":
        data = json.loads(text)
        return cls(int(data["n"]), [(int(u), int(v)) for u, v in data["edges"]])

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Digraph":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParameterError("empty graph text")
        n = int(lines[0])
        edges = []
        for ln in lines[1:]:
            u, v = ln.split()
            edges.append((int(u), int(v)))
        return cls(n, edges)


@dataclass(frozen=True)
class DegreeSequences:
    """Nondecreasing out/in degree sequences, 1-indexed at the API surface."""

    out_sorted: tuple[int, ...]
    in_sorted: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.out_sorted)

    def d_out(self, i: int) -> int:
        """The i-th smallest outdegree, 1-based."""
        if not (1 <= i <= self.n):
            raise ParameterError(f"degree index {i} out of [1, {self.n}]")
        return self.out_sorted[i - 1]

    def d_in(self, i: int) -> int:
        """The i-th smallest indegree, 1-based."""
        if not (1 <= i <= self.n):
            raise ParameterError(f"degree index {i} out of [1, {self.n}]")
        return self.in_sorted[i - 1]


def degree_at(seq: tuple[int, ...], index) -> int | None:
    """d_j of a nondecreasing degree sequence, with j = ceil(index).

    None when j is outside [1, n]: a statement about such a d_j is vacuous.
    """
    j = ceil(index)
    return seq[j - 1] if 1 <= j <= len(seq) else None


def degree_sequences(g: Digraph) -> DegreeSequences:
    return DegreeSequences(
        out_sorted=tuple(sorted(len(a) for a in g.out_adj)),
        in_sorted=tuple(sorted(len(a) for a in g.in_adj)),
    )


@dataclass(frozen=True)
class HamiltonCertificate:
    """A claimed Hamilton cycle, as the vertex order around the cycle."""

    order: tuple[int, ...]

    def to_json(self) -> str:
        return json.dumps({"order": list(self.order)})

    @classmethod
    def from_json(cls, text: str) -> "HamiltonCertificate":
        return cls(tuple(int(v) for v in json.loads(text)["order"]))


def verify_hamilton_cycle(g: Digraph, cert: HamiltonCertificate) -> bool:
    """True iff the order is a permutation of V and all cyclic edges exist."""
    order = cert.order
    if len(order) != g.n:
        raise MalformedCertificateError(
            f"certificate has length {len(order)}, expected {g.n}"
        )
    if set(order) != set(range(g.n)):
        return False
    return all(
        g.has_edge(order[i], order[(i + 1) % g.n]) for i in range(g.n)
    )


class OneFactor:
    """A spanning collection of disjoint cycles, stored as a successor map."""

    __slots__ = ("succ", "pred", "cycles", "cycle_of")

    def __init__(self, succ, host: Digraph | None = None):
        succ = tuple(succ)
        n = len(succ)
        if sorted(succ) != list(range(n)):
            raise ParameterError("successor map is not a permutation")
        if any(succ[v] == v for v in range(n)):
            raise ParameterError("a 1-factor cycle must have length >= 2")
        if host is not None:
            if host.n != n:
                raise ParameterError("successor map length does not match host")
            for v in range(n):
                if not host.has_edge(v, succ[v]):
                    raise ParameterError(
                        f"factor edge ({v},{succ[v]}) not present in host digraph"
                    )
        self.succ = succ
        pred = [0] * n
        for v in range(n):
            pred[succ[v]] = v
        self.pred = tuple(pred)
        cycles = []
        cycle_of = [-1] * n
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            cycle = []
            v = start
            while not seen[v]:
                seen[v] = True
                cycle_of[v] = len(cycles)
                cycle.append(v)
                v = succ[v]
            cycles.append(tuple(cycle))
        self.cycles = tuple(cycles)
        self.cycle_of = tuple(cycle_of)

    @property
    def n(self) -> int:
        return len(self.succ)

    def successor(self, x: int) -> int:
        return self.succ[x]

    def predecessor(self, x: int) -> int:
        return self.pred[x]

    def cycle_containing(self, x: int) -> tuple[int, ...]:
        return self.cycles[self.cycle_of[x]]

    def to_json(self) -> str:
        return json.dumps({"cycles": [list(c) for c in self.cycles]})

    @classmethod
    def from_cycles(cls, n: int, cycles, host: Digraph | None = None) -> "OneFactor":
        succ = [-1] * n
        for cycle in cycles:
            for i, v in enumerate(cycle):
                if succ[v] != -1:
                    raise ParameterError(f"vertex {v} appears in two cycles")
                succ[v] = cycle[(i + 1) % len(cycle)]
        if any(s == -1 for s in succ):
            missing = [v for v in range(n) if succ[v] == -1]
            raise ParameterError(f"cycles do not cover vertices {missing}")
        return cls(succ, host)

    @classmethod
    def from_json(cls, text: str, host: Digraph | None = None) -> "OneFactor":
        data = json.loads(text)
        cycles = [[int(v) for v in c] for c in data["cycles"]]
        n = sum(len(c) for c in cycles)
        return cls.from_cycles(n, cycles, host)


def distances_on_factor(f: OneFactor, x: int, y: int) -> set[int]:
    """The set of distances between x and y along their common factor cycle.

    Empty if x and y lie on different cycles. For x == y this returns
    {0, |C|}, keeping the two-distances semantics total on the diagonal.
    """
    if f.cycle_of[x] != f.cycle_of[y]:
        return set()
    cycle = f.cycle_containing(x)
    pos = {v: i for i, v in enumerate(cycle)}
    length = len(cycle)
    forward = (pos[y] - pos[x]) % length
    if x == y:
        return {0, length}
    return {forward, length - forward}


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Bipartite graph with classes A (size a_size) and B (size b_size).

    The edges are stored once, as a CSR biadjacency over A: the B-neighbours
    of vertex a are ``indices[indptr[a]:indptr[a + 1]]``, sorted ascending
    without repeats. ``from_edges`` validates an edge list into this form;
    the constructor and ``from_rows`` take rows already in it.
    """

    a_size: int
    b_size: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    @classmethod
    def from_edges(cls, a_size: int, b_size: int, edges) -> "BipartiteGraph":
        if a_size < 0 or b_size < 0:
            raise ParameterError(f"class sizes {a_size}, {b_size} must be nonnegative")
        pairs = np.array(list(edges) or np.empty((0, 2)), dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ParameterError("bipartite edges must be (a, b) pairs")
        a, b = pairs[:, 0], pairs[:, 1]
        bad = np.flatnonzero((a < 0) | (a >= a_size) | (b < 0) | (b >= b_size))
        if bad.size:
            u, v = pairs[bad[0]].tolist()
            raise ParameterError(f"bipartite edge ({u},{v}) out of range")
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        if ((a[1:] == a[:-1]) & (b[1:] == b[:-1])).any():
            raise ParameterError("duplicate bipartite edge")
        indptr = np.zeros(a_size + 1, dtype=np.int64)
        np.cumsum(np.bincount(a, minlength=a_size), out=indptr[1:])
        return cls(a_size, b_size, indptr, b)

    @classmethod
    def from_rows(cls, b_size: int, rows) -> "BipartiteGraph":
        """A-vertex a adjacent to rows[a], each row sorted without repeats
        (as a Digraph's ``out_adj`` is); the rows are not re-validated."""
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        indices = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1])
        )
        return cls(len(rows), b_size, indptr, indices)

    def edge_count(self) -> int:
        return len(self.indices)
