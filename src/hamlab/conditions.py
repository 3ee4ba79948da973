"""Degree-sequence Hamiltonicity condition checkers and extremal generators.

All threshold comparisons use exact rational arithmetic (Fraction). Where a
condition consults a degree index that is not an integer, the index is
rounded up; a statement about d_j with j outside [1, n] is treated as
vacuously true.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

from .digraph import Digraph, DegreeSequences, degree_at, degree_sequences
from .errors import ParameterError, PreconditionError
from .matching import is_strongly_connected


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a condition check, with a reproducible violation witness."""

    condition_name: str
    holds: bool
    first_violation: int | None = None
    witness: dict | None = None
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.holds != (self.first_violation is None and self.witness is None):
            raise ParameterError("holds must match the absence of a violation")

    def to_json(self) -> str:
        return json.dumps(
            {
                "condition_name": self.condition_name,
                "holds": self.holds,
                "first_violation": self.first_violation,
                "witness": self.witness,
                "parameters": self.parameters,
            }
        )


def _check_beta(beta) -> Fraction:
    if beta is None:
        raise ParameterError("this condition needs beta")
    beta = Fraction(beta)
    if not 0 < beta <= 1:
        raise ParameterError(f"beta must be in (0, 1], got {beta}")
    return beta


def _below(limit) -> range:
    """The indices 1 <= i < limit."""
    return range(1, ceil(limit))


def _at_least(seq: tuple[int, ...], index, threshold) -> bool:
    d = degree_at(seq, index)
    return d is None or d >= threshold


def _scan(name, seqs: DegreeSequences, params, indices, first, back=None):
    """Report the first index i in ``indices`` at which the condition fails.

    At i the condition asks d_i^+ >= first(i) and d_i^- >= first(i). With
    ``back`` (the Chvatal-type conditions) each of the two may instead hold
    through its back clause, d^-_{back(i)} >= n - i and d^+_{back(i)} >= n - i
    respectively. Integer thresholds are reported as ints, rational ones as
    strings.
    """
    n = seqs.n
    for i in indices:
        t = first(i)
        d_out, d_in = seqs.out_sorted[i - 1], seqs.in_sorted[i - 1]
        if back is None:
            clauses = {}
            if d_out >= t and d_in >= t:
                continue
        else:
            clauses = {
                "clause_i": d_out >= t or _at_least(seqs.in_sorted, back(i), n - i),
                "clause_ii": d_in >= t or _at_least(seqs.out_sorted, back(i), n - i),
            }
            if all(clauses.values()):
                continue
        witness = {"i": i, "d_out": d_out, "d_in": d_in, **clauses}
        witness["threshold"] = t if isinstance(t, int) else str(t)
        return ConditionReport(
            name, False, first_violation=i, witness=witness, parameters=params
        )
    return ConditionReport(name, True, parameters=params)


def check_ghouila_houri(g: Digraph) -> ConditionReport:
    """Minimum in- and outdegree at least n/2."""
    if g.n < 2:
        raise ParameterError("need n >= 2")
    half = Fraction(g.n, 2)
    return _scan("gh", degree_sequences(g), {"n": g.n}, [1], lambda i: half)


def check_posa_digraph(g: Digraph) -> ConditionReport:
    """Nash-Williams' Posa-type condition.

    d_i^+, d_i^- >= i+1 for all i < (n-1)/2, and both degree sequences reach
    ceil(n/2) at position ceil(n/2).
    """
    if g.n < 3:
        raise ParameterError("need n >= 3")
    n = g.n
    half = ceil(Fraction(n, 2))
    # i + 1 <= half for every i < (n-1)/2, so the min only bites at i = half
    return _scan(
        "posa",
        degree_sequences(g),
        {"n": n},
        [*_below(Fraction(n - 1, 2)), half],
        lambda i: min(i + 1, half),
    )


def check_nash_williams_chvatal(g: Digraph) -> ConditionReport:
    """Nash-Williams' Chvatal-type condition (with strong connectivity)."""
    if g.n < 3:
        raise ParameterError("need n >= 3")
    n = g.n
    if not is_strongly_connected(g):
        return ConditionReport(
            "nwc",
            False,
            witness={"strongly_connected": False},
            parameters={"n": n},
        )
    return _scan(
        "nwc",
        degree_sequences(g),
        {"n": n},
        _below(Fraction(n, 2)),
        lambda i: i + 1,
        lambda i: n - i,
    )


def semi_exact_thresholds(n: int, beta: Fraction):
    """First threshold and back index of the semi-exact condition at index i:
    d_i^+ >= min(i + beta*n, n/2) or d^-_{n-i-beta*n} >= n - i, and the mirror.
    """
    return (lambda i: min(i + beta * n, Fraction(n, 2))), (lambda i: n - i - beta * n)


def semi_exact_report(seqs: DegreeSequences, beta: Fraction) -> ConditionReport:
    """check_semi_exact on bare degree sequences, for a validated beta."""
    n = seqs.n
    return _scan(
        "semi-exact",
        seqs,
        {"n": n, "beta": str(beta)},
        _below(Fraction(n, 2)),
        *semi_exact_thresholds(n, beta),
    )


def check_semi_exact(g: Digraph, beta) -> ConditionReport:
    """The semi-exact Chvatal-type condition with error term beta*n."""
    return semi_exact_report(degree_sequences(g), _check_beta(beta))


def check_posa_min(g: Digraph, beta) -> ConditionReport:
    """The semi-exact Posa-type condition: d_i^+/- >= min(i+beta*n, n/2)."""
    beta = _check_beta(beta)
    n = g.n
    return _scan(
        "posa-min",
        degree_sequences(g),
        {"n": n, "beta": str(beta)},
        _below(Fraction(n, 2)),
        lambda i: min(i + beta * n, Fraction(n, 2)),
    )


def check_kot(g: Digraph, beta) -> ConditionReport:
    """The uncapped Chvatal-type condition: d_i^+ >= i + beta*n or the back clause."""
    beta = _check_beta(beta)
    n = g.n
    return _scan(
        "kot",
        degree_sequences(g),
        {"n": n, "beta": str(beta)},
        _below(Fraction(n, 2)),
        lambda i: i + beta * n,
        lambda i: n - i - beta * n,
    )


# Every entry is called as checker(g, beta); the first three ignore beta and
# the others raise ParameterError when it is None.
CHECKERS = {
    "gh": lambda g, beta: check_ghouila_houri(g),
    "posa": lambda g, beta: check_posa_digraph(g),
    "nwc": lambda g, beta: check_nash_williams_chvatal(g),
    "semi-exact": check_semi_exact,
    "posa-min": check_posa_min,
    "kot": check_kot,
}
CONDITION_NAMES = tuple(CHECKERS)


def derive_min_semidegree(g: Digraph, beta) -> bool:
    """Verify the minimum-semidegree consequence of the semi-exact condition.

    Requires check_semi_exact(g, beta) to hold; then delta^+(g) and
    delta^-(g) must both be at least beta*n. Returning False would falsify
    the implementation, not the mathematical fact.
    """
    beta = _check_beta(beta)
    if not check_semi_exact(g, beta).holds:
        raise PreconditionError("semi-exact condition does not hold on g")
    bound = beta * g.n
    return g.min_out_degree() >= bound and g.min_in_degree() >= bound


def full_range_equivalence(g: Digraph, beta) -> bool:
    """Dropping i < n/2 in favor of i < n - beta*n does not change the condition."""
    beta = _check_beta(beta)
    n = g.n
    seqs = degree_sequences(g)
    first, back = semi_exact_thresholds(n, beta)

    def holds(limit: Fraction) -> bool:
        return _scan("semi-exact", seqs, {}, _below(limit), first, back).holds

    return holds(Fraction(n, 2)) == holds(n - beta * n)


def gen_extremal_chvatal(n: int, k: int) -> Digraph:
    """The independent-set-plus-clique extremal digraph.

    Vertices [0, k) form the independent set I; [k, n) form a complete
    digraph K; the first k vertices of K are joined to I in both
    directions. Strongly connected, non-Hamiltonian, with both degree
    sequences equal to (k x k, n-1-k x (n-2k), n-1 x k).
    """
    if not (1 <= k and 2 * k < n):
        raise ParameterError(f"need 1 <= k < n/2, got n={n}, k={k}")
    edges = []
    for u in range(k, n):
        for v in range(k, n):
            if u != v:
                edges.append((u, v))
    for u in range(k):
        for x in range(k, 2 * k):
            edges.append((u, x))
            edges.append((x, u))
    return Digraph(n, edges)


def gen_concluding_example(n: int, a) -> Digraph:
    """Transitive tournament plus two complete end blocks of size a*n + 1.

    All forward edges i -> j for i < j are present; back edges exist inside
    the first a*n + 1 vertices and inside the last a*n + 1 vertices. The
    minimum semidegree is exactly a*n.
    """
    a = Fraction(a)
    if not 0 < a < Fraction(1, 2):
        raise ParameterError(f"need 0 < a < 1/2, got {a}")
    an = a * n
    if an.denominator != 1:
        raise ParameterError(f"a*n must be integral, got {an}")
    an = int(an)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # back edges inside vertices {0..an} and {n-1-an..n-1} (0-indexed blocks)
    for block in (range(0, an + 1), range(n - an - 1, n)):
        for u in block:
            for v in block:
                if v < u:
                    edges.append((u, v))
    return Digraph(n, edges)
