"""Cycle covers of reduced digraphs: degree inheritance, expansion,
cycles-plus-few-paths partition, and the active-path cover algorithm.

All thresholds involving d, beta and square roots are compared exactly
(square roots by comparing squares of integers against rationals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

import numpy as np

from .digraph import Digraph, degree_sequences
from .errors import ContractError, ParameterError, ScaleError
from .matching import find_one_factor

_EXHAUSTIVE_K_CAP = 22


def _leq_times_sqrt(s: int, coeff: int, d: Fraction, k: int) -> bool:
    """Exact test of s <= coeff * sqrt(d) * k for s >= 0."""
    return Fraction(s * s) <= coeff * coeff * d * k * k


@dataclass(frozen=True)
class ClauseReport:
    clause: str
    holds: bool
    margin: Fraction
    witness_index: int | None = None


@dataclass(frozen=True)
class DegreeInheritanceReport:
    clauses: tuple[ClauseReport, ...]

    @property
    def holds(self) -> bool:
        return all(c.holds for c in self.clauses)

    def clause(self, name: str) -> ClauseReport:
        for c in self.clauses:
            if c.clause == name:
                return c
        raise ParameterError(f"no clause named {name!r}")


def _first_minimum(name: str, num: np.ndarray, den: int) -> ClauseReport:
    """The clause report of margins num/den over indices 1..k: the first
    minimum is the witness."""
    i = int(np.argmin(num))
    margin = Fraction(num[i], den)
    return ClauseReport(name, margin >= 0, margin, i + 1)


def verify_inherited_degrees(
    r: Digraph, d, beta, g: Digraph | None = None, part=None
) -> DegreeInheritanceReport:
    """Check the six degree-inheritance clauses of the reduced digraph.

    Clauses (i)/(ii) compare r's degree sequence against the host's and
    need g and its cluster partition; with g omitted only the r-only
    clauses (iii)-(vi) are evaluated. Margins are exact: each clause's
    margins over i = 1..k are integer numerators (Python ints in object
    arrays, so nothing overflows) over one common denominator, and a
    negative margin pinpoints the first failing index.
    """
    d, beta = Fraction(d), Fraction(beta)
    k = r.n
    if k == 0:
        raise ParameterError("the reduced digraph has no vertices")
    seqs = degree_sequences(r)
    index = np.arange(1, k + 1)
    clauses: list[ClauseReport] = []

    if g is not None:
        if part is None or part.k != k:
            raise ParameterError("partition must match r's vertex count")
        m = part.m
        gseqs = degree_sequences(g)
        # r_i - (g_{im} / m - 2dk), over the denominator m * den(d)
        den = m * d.denominator
        for name, rseq, gseq in (
            ("i", seqs.out_sorted, gseqs.out_sorted),
            ("ii", seqs.in_sorted, gseqs.in_sorted),
        ):
            rs = np.array(rseq, dtype=object)
            gs = np.array(gseq, dtype=object)[index * m - 1]
            num = rs * den - gs * d.denominator + 2 * k * m * d.numerator
            clauses.append(_first_minimum(name, num, den))

    floor = beta * k / 2
    for name, value in (
        ("iii", r.min_out_degree()),
        ("iv", r.min_in_degree()),
    ):
        clauses.append(ClauseReport(name, value >= floor, value - floor))

    # max(fwd_i - min(i + beta k/2, (1/2 - 2d)k),
    #     bwd_j - (k - i - 2dk)) with j = ceil((1 - beta/2)k - i), the second
    # term only for 1 <= j <= k; over the denominator 2 den(beta) den(d)
    den = 2 * beta.denominator * d.denominator
    two_dk = 4 * d.numerator * k * beta.denominator  # 2dk * den
    cap = k * beta.denominator * d.denominator - two_dk  # (1/2 - 2d)k * den
    i = index.astype(object)
    j = ceil((1 - beta / 2) * k) - index
    has_back = (j >= 1) & (j <= k)
    for name, fwd, bwd in (
        ("v", seqs.out_sorted, seqs.in_sorted),
        ("vi", seqs.in_sorted, seqs.out_sorted),
    ):
        fs = np.array(fwd, dtype=object)
        bs = np.array(bwd, dtype=object)[np.clip(j, 1, k) - 1]
        first = fs * den - np.minimum(
            i * den + beta.numerator * k * d.denominator, cap
        )
        second = bs * den - (k - i) * den + two_dk
        num = np.where(has_back, np.maximum(first, second), first)
        clauses.append(_first_minimum(name, num, den))

    return DegreeInheritanceReport(tuple(clauses))


def check_outexpansion(r: Digraph, d) -> set[int] | None:
    """Search for S with |S| <= (1/2-2d)k or |S| > (1/2+2d)k violating
    |N+(S)|, |N-(S)| >= |S|. Exhaustive over all subsets; returns the
    first violator in mask order, or None."""
    d = Fraction(d)
    k = r.n
    if k > _EXHAUSTIVE_K_CAP:
        raise ScaleError(f"exhaustive expansion check capped at k={_EXHAUSTIVE_K_CAP}")
    lo = (Fraction(1, 2) - 2 * d) * k
    hi = (Fraction(1, 2) + 2 * d) * k
    out_mask = [0] * k
    in_mask = [0] * k
    for u in range(k):
        for v in r.out_adj[u]:
            out_mask[u] |= 1 << v
            in_mask[v] |= 1 << u
    size = 1 << k
    n_out = [0] * size
    n_in = [0] * size
    for s in range(1, size):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        n_out[s] = n_out[rest] | out_mask[low]
        n_in[s] = n_in[rest] | in_mask[low]
        sz = s.bit_count()
        if not (Fraction(sz) <= lo or Fraction(sz) > hi):
            continue
        if n_out[s].bit_count() < sz or n_in[s].bit_count() < sz:
            return {v for v in range(k) if s & (1 << v)}
    return None


def large_degree_census(r: Digraph, d) -> tuple[int, int]:
    """Counts of vertices with out/in degree >= (1/2 - 2d)k."""
    d = Fraction(d)
    threshold = (Fraction(1, 2) - 2 * d) * r.n
    out_large = sum(1 for v in range(r.n) if r.out_degree(v) >= threshold)
    in_large = sum(1 for v in range(r.n) if r.in_degree(v) >= threshold)
    return out_large, in_large


@dataclass(frozen=True)
class PathCyclePartition:
    cycles: tuple[tuple[int, ...], ...]
    paths: tuple[tuple[int, ...], ...]
    waste: frozenset

    def validate(self, r: Digraph, d=None) -> None:
        all_v: list[int] = list(self.waste)
        for c in self.cycles:
            if len(c) < 2:
                raise ParameterError("cycle shorter than 2")
            all_v.extend(c)
            for i, v in enumerate(c):
                if not r.has_edge(v, c[(i + 1) % len(c)]):
                    raise ParameterError(f"missing cycle edge at {v}")
        for p in self.paths:
            all_v.extend(p)
            for i in range(len(p) - 1):
                if not r.has_edge(p[i], p[i + 1]):
                    raise ParameterError(f"missing path edge at {p[i]}")
        if sorted(all_v) != list(range(r.n)):
            raise ParameterError("cycles, paths and waste do not partition V")
        if d is not None:
            dd = Fraction(d)
            threshold = (Fraction(1, 2) - 2 * dd) * r.n
            for p in self.paths:
                if r.in_degree(p[0]) < threshold:
                    raise ParameterError(f"path start {p[0]} has small indegree")
                if r.out_degree(p[-1]) < threshold:
                    raise ParameterError(f"path end {p[-1]} has small outdegree")


def _check_d(d) -> Fraction:
    d = Fraction(d)
    if d <= 0:
        raise ParameterError(f"d must be positive, got {d}")
    return d


def partition_cycles_paths(r: Digraph, d) -> PathCyclePartition:
    """Partition V(r) into cycles plus at most ceil(4dk) paths whose
    endpoints have the (1/2 - 2d)k degree guarantees.

    Built by adding ceil(4dk) new vertices joined completely among
    themselves, receiving edges from all high-outdegree vertices and
    sending edges to all high-indegree vertices, then extracting a
    1-factor and deleting the new vertices.
    """
    d = _check_d(d)
    k = r.n
    if k == 0:
        return PathCyclePartition((), (), frozenset())
    q = ceil(4 * d * k)
    low = ceil((Fraction(1, 2) - 2 * d) * k)  # degrees are integers
    out_deg = np.diff(r.indptr)
    high_out = np.flatnonzero(out_deg >= low)
    high_in = np.flatnonzero(np.bincount(r.indices, minlength=k) >= low)
    new = np.arange(k, k + q)
    block_u, block_v = np.repeat(new, q), np.tile(new, q)
    loop_free = block_u != block_v
    aug = Digraph.from_arrays(
        k + q,
        np.concatenate((
            np.repeat(np.arange(k), out_deg), block_u[loop_free],
            np.repeat(high_out, q), np.tile(new, len(high_in)),
        )),
        np.concatenate((
            r.indices, block_v[loop_free],
            np.tile(new, len(high_out)), np.repeat(high_in, q),
        )),
    )
    cert = find_one_factor(aug)
    if cert.factor is None:
        raise ContractError(
            "augmented digraph has no 1-factor: degree preconditions violated",
            witness=sorted(cert.violator),
        )
    cycles: list[tuple[int, ...]] = []
    paths: list[tuple[int, ...]] = []
    for cycle in cert.factor.cycles:
        if all(v < k for v in cycle):
            cycles.append(cycle)
            continue
        # break at new vertices; the runs of original vertices become paths
        t = len(cycle)
        starts = [i for i, v in enumerate(cycle) if v >= k]
        for s_idx, s in enumerate(starts):
            nxt = starts[(s_idx + 1) % len(starts)]
            run = []
            i = (s + 1) % t
            while i != nxt:
                run.append(cycle[i])
                i = (i + 1) % t
            if run:
                paths.append(tuple(run))
    result = PathCyclePartition(tuple(cycles), tuple(paths), frozenset())
    result.validate(r, d)
    if len(paths) > q:
        raise ContractError(f"{len(paths)} paths exceed the {q} bound")
    return result


@dataclass(frozen=True)
class CoverResult:
    cycles: tuple[tuple[int, ...], ...]
    waste: frozenset
    trace: tuple[dict, ...] = field(default_factory=tuple)


def cover_by_cycles(
    r: Digraph,
    d,
    seed: int = 0,
    initial: PathCyclePartition | None = None,
    active_policy: str = "longest",
) -> CoverResult:
    """The active-path algorithm: absorb paths into cycles, wasting at
    most 7*sqrt(d)*k vertices.

    Each iteration recomputes S (total path vertices), alpha = 5dk/S and
    l_r = ceil(alpha*|P_r|), then applies the first of conditions (1)-(4)
    that holds, with the lowest-index witness. Stops and dumps all paths
    into the waste once S <= 5*sqrt(d)*k.
    """
    d = _check_d(d)
    k = r.n
    if active_policy not in ("longest", "random"):
        raise ParameterError(f"unknown active policy {active_policy!r}")
    rng = np.random.default_rng(seed)
    start = initial if initial is not None else partition_cycles_paths(r, d)
    cycles = [list(c) for c in start.cycles]
    paths = [list(p) for p in start.paths]
    waste: set[int] = set(start.waste)
    trace: list[dict] = []
    threshold = (Fraction(1, 2) - 2 * d) * k

    def pick_active() -> int:
        if active_policy == "random":
            return int(rng.integers(len(paths)))
        best = max(range(len(paths)), key=lambda i: (len(paths[i]), -i))
        return best

    active = pick_active() if paths else -1
    while paths:
        s_total = sum(len(p) for p in paths)
        endpoints_ok = all(
            r.in_degree(p[0]) >= threshold and r.out_degree(p[-1]) >= threshold
            for p in paths
        )
        if _leq_times_sqrt(s_total, 5, d, k):
            dumped = sum(len(p) for p in paths)
            for p in paths:
                waste.update(p)
            paths.clear()
            trace.append(
                {"case": "dump", "S": s_total, "alpha": None,
                 "active": None, "waste_delta": dumped,
                 "endpoints_ok": endpoints_ok}
            )
            break
        alpha = Fraction(5 * d * k, s_total)
        ells = [ceil(alpha * len(p)) for p in paths]
        p_act = paths[active]
        u, v = p_act[0], p_act[-1]
        case = None
        waste_before = len(waste)

        # condition (1): a waste vertex w with w->u and v->w
        w1 = next(
            (w for w in sorted(waste) if r.has_edge(w, u) and r.has_edge(v, w)),
            None,
        )
        if w1 is not None:
            cycles.append([w1] + p_act)
            waste.remove(w1)
            paths.pop(active)
            case = "1"
        if case is None:
            # condition (2): insert P into an existing cycle
            for ci, cyc in enumerate(cycles):
                t = len(cyc)
                hit = next(
                    (
                        i
                        for i in range(t)
                        if r.has_edge(cyc[i], u) and r.has_edge(v, cyc[(i + 1) % t])
                    ),
                    None,
                )
                if hit is not None:
                    cycles[ci] = cyc[: hit + 1] + p_act + cyc[hit + 1:]
                    paths.pop(active)
                    case = "2"
                    break
        if case is None:
            # condition (3): a short bridge w_i -> u ... v -> w_j inside a path
            for ri, path in enumerate(paths):
                ell = ells[ri]
                t = len(path)
                found = None
                for a in range(t):
                    if not r.has_edge(path[a], u):
                        continue
                    b_hi = min(a + ell + 1, t - 1)
                    for b in range(a + 1, b_hi + 1):
                        if r.has_edge(v, path[b]):
                            found = (a, b)
                            break
                    if found:
                        break
                if not found:
                    continue
                a, b = found
                if ri != active:
                    merged = path[: a + 1] + p_act + path[b:]
                    waste.update(path[a + 1: b])
                    for idx in sorted((ri, active), reverse=True):
                        paths.pop(idx)
                    paths.append(merged)
                    active = len(paths) - 1
                    case = "3i"
                else:
                    cycles.append(p_act[: a + 1])  # closes via w_a -> u
                    cycles.append(p_act[b:])  # closes via v -> w_b
                    waste.update(p_act[a + 1: b])
                    paths.pop(active)
                    case = "3ii"
                break
        if case is None:
            # condition (4): u has an in-neighbor near some path's end, or
            # v an out-neighbor near some path's start
            for ri, path in enumerate(paths):
                ell = ells[ri]
                t = len(path)
                iu = next(
                    (i for i in range(t) if r.has_edge(path[t - 1 - i], u)), None
                )
                iv = next((i for i in range(t) if r.has_edge(v, path[i])), None)
                if iu is not None and iu <= ell:
                    if ri != active:
                        merged = path[: t - iu] + p_act
                        waste.update(path[t - iu:])
                        for idx in sorted((ri, active), reverse=True):
                            paths.pop(idx)
                        paths.append(merged)
                        active = len(paths) - 1
                        case = "4i"
                    else:
                        cycles.append(p_act[: t - iu])
                        waste.update(p_act[t - iu:])
                        paths.pop(active)
                        case = "4iii"
                    break
                if iv is not None and iv <= ell:
                    if ri != active:
                        merged = p_act + path[iv:]
                        waste.update(path[:iv])
                        for idx in sorted((ri, active), reverse=True):
                            paths.pop(idx)
                        paths.append(merged)
                        active = len(paths) - 1
                        case = "4ii"
                    else:
                        cycles.append(p_act[iv:])
                        waste.update(p_act[:iv])
                        paths.pop(active)
                        case = "4iv"
                    break
        if case is None:
            raise ContractError(
                "none of conditions (1)-(4) applies: the degree "
                "preconditions of the cover algorithm are violated",
                witness={"active_path": tuple(p_act), "S": s_total},
            )
        trace.append(
            {
                "case": case,
                "S": s_total,
                "alpha": str(alpha),
                "active": tuple(p_act),
                "waste_delta": len(waste) - waste_before,
                "endpoints_ok": endpoints_ok,
            }
        )
        if paths and case in ("1", "2", "3ii", "4iii", "4iv"):
            active = pick_active()

    result = CoverResult(
        tuple(tuple(c) for c in cycles), frozenset(waste), tuple(trace)
    )
    PathCyclePartition(result.cycles, (), result.waste).validate(r)
    return result
