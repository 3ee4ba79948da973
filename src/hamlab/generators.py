"""Synthetic instance generators.

Blow-up instances realize the clustered pipeline preconditions directly;
the conditioned random generator produces digraphs passing the semi-exact
degree condition via a deterministic repair loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

import numpy as np

from .conditions import check_semi_exact, semi_exact_report, semi_exact_thresholds
from .digraph import DegreeSequences, Digraph, OneFactor
from .errors import GenerationError, ParameterError
from .regular_pairs import ClusterPartition, Pair, certify_super_regular

_AUDIT_RETRIES = 100
_AUDIT_EPS = Fraction(2, 5)


def gen_blowup(
    r0: Digraph,
    f0: OneFactor,
    m: int,
    pair_density,
    v0_count: int = 0,
    seed: int = 0,
) -> tuple[Digraph, ClusterPartition, OneFactor]:
    """Blow every cluster of r0 up to m vertices, each r0 edge to a random
    bipartite pair at pair_density.

    Factor-edge pairs are audited with certify_super_regular (eps = 2/5,
    d = pair_density/2) and redrawn on failure, so the emitted instance
    always satisfies its declared super-regularity precondition.
    Exceptional vertices get independent density-`pair_density` in- and
    out-neighborhoods across all cluster vertices.
    """
    pair_density = Fraction(pair_density)
    if not 0 < pair_density <= 1:
        raise ParameterError(f"pair density must be in (0,1], got {pair_density}")
    if m % 2 != 0 or m < 2:
        raise ParameterError(f"cluster size must be a positive even number, got {m}")
    if v0_count < 0:
        raise ParameterError(f"v0 count must be nonnegative, got {v0_count}")
    if f0.n != r0.n:
        raise ParameterError("factor does not match the template digraph")
    for cycle in f0.cycles:
        if len(cycle) < 4:
            raise ParameterError("every factor cycle must have length >= 4")
    for x in range(r0.n):
        if not r0.has_edge(x, f0.successor(x)):
            raise ParameterError(f"factor edge ({x},{f0.successor(x)}) not in template")

    rng = np.random.default_rng(seed)
    k = r0.n
    clusters = [tuple(range(i * m, (i + 1) * m)) for i in range(k)]
    v0 = tuple(range(k * m, k * m + v0_count))
    n = k * m + v0_count
    audit_d = pair_density / 2

    def draw():
        return rng.random((m, m)) < float(pair_density)

    masks = {(i, j): draw() for i, j in r0.edges()}
    for i in range(k):
        j = f0.successor(i)
        for attempt in range(_AUDIT_RETRIES + 1):
            pair = Pair(clusters[i], clusters[j], masks[(i, j)])
            verdict = certify_super_regular(pair, _AUDIT_EPS, audit_d, mode="exhaustive")
            if verdict.regular:
                break
            if attempt == _AUDIT_RETRIES:
                raise GenerationError(
                    f"super-regularity audit failed {_AUDIT_RETRIES} times "
                    f"on factor edge ({i},{j}) at density {pair_density}"
                )
            masks[(i, j)] = draw()

    edges: list[tuple[int, int]] = []
    for (i, j), mask in masks.items():
        rows, cols = np.nonzero(mask)
        edges.extend(zip((rows + i * m).tolist(), (cols + j * m).tolist()))

    cluster_vertices = range(k * m)
    for x in v0:
        for v in cluster_vertices:
            if rng.random() < float(pair_density):
                edges.append((x, v))
            if rng.random() < float(pair_density):
                edges.append((v, x))

    g = Digraph(n, edges)
    part = ClusterPartition(v0, tuple(clusters))
    return g, part, f0


_REPAIR_CAP_FACTOR = 10


def gen_random_condition(n: int, beta, seed: int = 0) -> Digraph:
    """Random digraph repaired until it passes the semi-exact condition.

    Repair targets the most deficient clause at the first violated index:
    the vertex currently realizing that order statistic gains an edge to
    (or from) its lowest-id non-neighbor. The output distribution is NOT
    uniform over condition-satisfying digraphs.
    """
    beta = Fraction(beta)
    if not 0 < beta < Fraction(1, 2):
        raise ParameterError(f"beta must be in (0, 1/2), got {beta}")
    if n < 4:
        raise ParameterError(f"need n >= 4, got {n}")
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < 0.5
    np.fill_diagonal(mask, False)
    out_sets = [set(np.nonzero(mask[u])[0].tolist()) for u in range(n)]
    in_counts = mask.sum(axis=0).tolist()
    first, back = semi_exact_thresholds(n, beta)

    def add(a: int, b: int) -> None:
        out_sets[a].add(b)
        in_counts[b] += 1

    def add_any_missing() -> bool:
        for a in range(n):
            for b in range(n):
                if a != b and b not in out_sets[a]:
                    add(a, b)
                    return True
        return False

    cap = _REPAIR_CAP_FACTOR * n * n
    for _ in range(cap):
        out_counts = [len(s) for s in out_sets]
        seqs = DegreeSequences(tuple(sorted(out_counts)), tuple(sorted(in_counts)))
        report = semi_exact_report(seqs, beta)
        if report.holds:
            break
        i = report.first_violation
        # shortfalls of the two clauses at the violated index; the back index
        # j is in [1, n] because a vacuous back clause cannot fail
        u = sorted(range(n), key=lambda v: (out_counts[v], v))[i - 1]
        out_short = ceil(first(i)) - out_counts[u]
        j = ceil(back(i))
        w = sorted(range(n), key=lambda v: (in_counts[v], v))[j - 1]
        in_short = (n - i) - in_counts[w]

        if out_short >= in_short:
            target = next(
                (v for v in range(n) if v != u and v not in out_sets[u]), None
            )
            if target is not None:
                add(u, target)
            elif not add_any_missing():
                break  # complete digraph; the check below must hold
        else:
            source = next(
                (v for v in range(n) if v != w and w not in out_sets[v]), None
            )
            if source is not None:
                add(source, w)
            elif not add_any_missing():
                break
    g = Digraph(n, [(u, v) for u in range(n) for v in sorted(out_sets[u])])
    if check_semi_exact(g, beta).holds:
        return g
    raise GenerationError(f"repair loop cap ({cap}) exhausted at n={n}, beta={beta}")
