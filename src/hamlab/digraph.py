"""Core digraph, bipartite-graph, 1-factor and certificate types.

Vertices are dense 0-indexed integers. Digraphs are loop-free with at most
one edge per ordered pair (2-cycles are allowed). All types are immutable
after construction and safe to share across threads. The one lazy part,
a ``Digraph``'s ``out_sets``/``in_sets``, is filled on first read by an
idempotent assignment: concurrent first reads each build equal tuples of
frozensets from the same adjacency, and whichever assignment lands last is
equal to the others.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from itertools import chain
from math import ceil
from operator import index

import numpy as np

from .errors import MalformedCertificateError, ParameterError


def _edge_pairs(n: int, edges) -> np.ndarray:
    """The edges as an (m, 2) int64 array, in input order.

    An edge must be a pair of integer labels (numpy integers included); a
    float, a string or a label beyond int64 is never cast.
    """
    if isinstance(edges, np.ndarray):
        if edges.dtype.kind not in "iu" or edges.ndim != 2 or edges.shape[1] != 2:
            raise ParameterError("an edge array must be (m, 2) integers")
        return edges.astype(np.int64, copy=False)
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)
    try:
        flat = array("q", chain.from_iterable(edges))
    except (TypeError, OverflowError):
        raise _first_bad_edge(n, edges) from None
    if len(flat) != 2 * len(edges):
        raise _first_bad_edge(n, edges)
    return np.frombuffer(flat, dtype=np.int64).reshape(-1, 2)


def _json_label(v, error: type[Exception] = ParameterError) -> int:
    """A vertex label read from JSON: an int, never a bool, float or string."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise error(f"vertex label {v!r} is not an integer")
    return v


def _adjacency(n: int, pairs: np.ndarray):
    """Validate the edges (u, v) and return the out-adjacency CSR
    (indptr, indices) with the sorted tuples out_adj and in_adj.

    One sort of the keys u*n + v (edge uv in row u) and n*n + v*n + u (edge
    uv in row n + v) orders both directions: keys of 2n rows of n columns.
    Raises the ``ParameterError`` of the first bad edge in input order.
    """
    m = len(pairs)
    u, v = pairs[:, 0], pairs[:, 1]
    # as uint64 a negative label is above any n
    if m and (pairs.view(np.uint64).max() >= n or (u == v).any()):
        raise _first_bad_edge(n, pairs.tolist())
    keys = (pairs @ np.array([[n, 1], [1, n]], dtype=np.int64)).T.ravel()
    keys[m:] += n * n
    keys.sort()
    if (keys[1:m] == keys[: m - 1]).any():
        raise _first_bad_edge(n, pairs.tolist())
    ptr = np.searchsorted(keys, np.arange(2 * n + 1) * n)
    cols = keys % n if n else keys
    ptr_list, cols_list = ptr.tolist(), cols.tolist()
    rows = tuple(
        tuple(cols_list[a:b]) for a, b in zip(ptr_list, ptr_list[1:])
    )
    return ptr[: n + 1], cols[:m], rows[:n], rows[n:]


def _first_bad_edge(n: int, edges) -> ParameterError:
    """The error of the first bad edge in input order, built only once a
    vectorised check has failed: each edge is checked for integer labels,
    then range, then self-loop, then a copy earlier in the input."""
    seen = set()
    for edge in edges:
        try:
            u, v = map(index, edge)
        except (TypeError, ValueError):
            return ParameterError(
                f"edge {edge!r} is not a pair of integer vertex labels"
            )
        if not (0 <= u < n and 0 <= v < n):
            return ParameterError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            return ParameterError(f"self-loop at vertex {u}")
        if (u, v) in seen:
            # duplicates are rejected, not silently deduplicated: they
            # usually indicate a generator bug
            return ParameterError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
    raise AssertionError("no bad edge, yet a vectorised check failed")


class Digraph:
    """Loop-free digraph with sorted adjacency lists.

    ``in_adj`` is maintained as the exact transpose of ``out_adj``, and
    ``indptr``/``indices`` hold ``out_adj`` as a read-only CSR. The
    frozensets ``out_sets``/``in_sets`` are built on first read (see
    ``_SetsPending``) and then read as plain slots.
    """

    __slots__ = (
        "n", "out_adj", "in_adj", "out_sets", "in_sets", "indptr", "indices",
        "_edge_count",
    )

    def __init__(self, n: int, edges):
        """``edges`` is an iterable of (u, v) pairs or an (m, 2) integer
        array. Out-of-range edges, self-loops and duplicates raise
        ``ParameterError`` naming the first bad edge in input order."""
        n = index(n)
        if n < 0:
            raise ParameterError(f"vertex count must be nonnegative, got {n}")
        self.indptr, self.indices, self.out_adj, self.in_adj = _adjacency(
            n, _edge_pairs(n, edges)
        )
        self.n = n
        self._edge_count = len(self.indices)
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self.__class__ = _SetsPending  # until out_sets and in_sets are read

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_arrays(cls, n: int, u, v) -> "Digraph":
        """The digraph with edges (u[i], v[i]), validated like any other."""
        if len(u) != len(v):
            raise ParameterError(f"{len(u)} tails against {len(v)} heads")
        return cls(n, np.column_stack((u, v)))

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

    def __reduce__(self):
        # rebuilt from its edges, so a copy never starts half-way through
        # a _SetsPending hand-over
        return Digraph, (self.n, self.edges())

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
        return cls(data["n"], data["edges"])

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


class _SetsPending(Digraph):
    """A ``Digraph`` whose ``out_sets`` or ``in_sets`` is not built yet.

    Reading an unset slot falls through to ``__getattr__``, which fills it;
    once both are filled the instance becomes a plain ``Digraph``. CPython
    does not specialise attribute reads on a class that defines
    ``__getattr__`` (``has_edge`` took 160 ns here against 80 ns on a plain
    ``Digraph``), and a ``property`` would cost every read, hence the
    hand-over. Every fill is idempotent, so threads reading at once build
    equal tuples and the class they leave is ``Digraph``.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        if name == "out_sets":
            adj, other = self.out_adj, Digraph.in_sets
        elif name == "in_sets":
            adj, other = self.in_adj, Digraph.out_sets
        else:
            raise AttributeError(f"'Digraph' object has no attribute {name!r}")
        sets = tuple(map(frozenset, adj))
        setattr(self, name, sets)
        try:
            other.__get__(self)  # the slot itself, never this hook
        except AttributeError:
            return sets
        self.__class__ = Digraph
        return sets


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
        order = json.loads(text)["order"]
        return cls(tuple(_json_label(v, MalformedCertificateError) for v in order))


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
            # read off the CSR, so the host's frozensets stay unbuilt: a row
            # holds each head once, so all n edges are present iff n of the
            # row entries equal their row's successor
            deg = np.diff(host.indptr)
            hit = host.indices == np.repeat(np.array(succ, dtype=np.int64), deg)
            if np.count_nonzero(hit) != n:
                tails = np.repeat(np.arange(n), deg)[hit]
                v = int(np.setdiff1d(np.arange(n), tails)[0])
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
        cycles = [[_json_label(v) for v in c] for c in data["cycles"]]
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
    the constructor takes rows already in it, such as a ``Digraph``'s own
    ``indptr``/``indices``.
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

    def edge_count(self) -> int:
        return len(self.indices)
