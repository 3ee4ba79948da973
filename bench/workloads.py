"""The four benchmark workloads: blowup, cover, walks and campaign.

Each workload is a fixed cycle of parameter classes. Op ``i`` runs class
``classes[i % len(classes)]`` on inputs drawn from a seed derived from the
benchmark seed and ``i``. A run is a whole number of cycles fixed by its
length in seconds, so a seed fixes every input, every run sees the same mix
of classes, and the ops that fail repeat exactly. Where the benchmark draws a workload's inputs itself
(the edges of ``cover`` and ``walks``), it does so before the op's timer
starts. An op takes one instance from generation to a checked answer through
hamlab's public calls. It returns the time spent in the instance-building
calls (gen), in the solving calls (solve), and the output check: a callable
that returns a problem string, or None when the output is correct.

Times are CPU time of the benchmark process (``process_time``): every op is
single-threaded and does no I/O, so this is its latency less the time the
host's scheduler gave the CPU to others, which on a shared machine is the
noise, not the program.

hamlab is always called through module attributes (``generators.gen_blowup``,
not a name imported into this module), so the traced run sees every call
after it replaces those attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from time import perf_counter, process_time
from typing import Callable, NamedTuple

import numpy as np

from hamlab import (
    HamlabError,
    assembly,
    conditions,
    cycle_cover,
    digraph,
    generators,
    oracle,
    shifted_walks,
)

BETA = Fraction(1, 4)


def op_seed(seed: int, index: int) -> int:
    """The input seed of op ``index``; index -1 is the warm-up op."""
    return int(np.random.SeedSequence([seed, index + 1]).generate_state(1)[0])


def _edges(mask: np.ndarray) -> list[tuple[int, int]]:
    np.fill_diagonal(mask, False)
    us, vs = np.nonzero(mask)
    return list(zip(us.tolist(), vs.tolist()))


# -- blowup -------------------------------------------------------------------

_ETA, _EPS = Fraction(1, 4), Fraction(2, 5)
_D70, _D80 = Fraction(7, 10), Fraction(4, 5)


# (k, m, density, v0), 20 ops per cycle: five k=8 and thirteen k=12 ops at
# m=8 over every density and v0, so that p50 and p75 both lie inside the
# k=12, m=8 group; one k=12 m=10 and one k=8 m=12 op carry the 2^m growth of
# the exhaustive audit into throughput and gen time.
BLOWUP_CLASSES = (
    (8, 8, _D70, 0), (12, 8, _D70, 0), (12, 8, _D80, 1), (12, 8, _D70, 2),
    (8, 8, _D80, 1), (12, 8, _D80, 0), (12, 10, _D80, 2), (12, 8, _D70, 1),
    (8, 8, _D70, 2), (12, 8, _D80, 2), (12, 8, _D70, 0), (12, 8, _D80, 1),
    (8, 8, _D80, 0), (12, 8, _D70, 2), (12, 8, _D80, 0), (12, 8, _D70, 1),
    (8, 12, _D80, 1), (8, 8, _D70, 1), (12, 8, _D80, 2), (12, 8, _D70, 0),
)


def blowup_op(params, seed: int, inputs=None):
    k, m, density, v0 = params
    start = process_time()
    r0 = digraph.Digraph.complete(k)
    f0 = digraph.OneFactor.from_cycles(
        k, [list(range(i, i + 4)) for i in range(0, k, 4)]
    )
    g, part, f = generators.gen_blowup(r0, f0, m, density, v0_count=v0, seed=seed)
    built = process_time()
    cert = assembly.assemble_hamilton(
        g, part, f, r0, _ETA, _EPS, density / 2, seed=seed
    )
    solved = process_time()

    def check():
        if not digraph.verify_hamilton_cycle(g, cert):
            return "Hamilton certificate does not verify"
        return None

    return built - start, solved - built, check


# -- cover --------------------------------------------------------------------

_COVER_K, _COVER_D = 400, Fraction(1, 400)

# ("random", p): every ordered pair is an edge with probability p.
# ("block", s): an independent block of k/2 + s shuffled vertices, complete
# elsewhere, the obstruction of the cover's degree bound. The p=0.8 class,
# the slowest, runs twice per cycle, so that p50 lies inside the block
# classes and p75 inside the p=0.8 class.
COVER_CLASSES = (
    ("random", 0.6), ("random", 0.8), ("block", 1), ("block", 2), ("random", 0.8)
)


def cover_edges(params, seed: int) -> list[tuple[int, int]]:
    kind, value = params
    k = _COVER_K
    rng = np.random.default_rng(seed)
    if kind == "random":
        mask = rng.random((k, k)) < value
    else:
        block = rng.permutation(k)[: k // 2 + value]
        mask = np.ones((k, k), dtype=bool)
        mask[np.ix_(block, block)] = False
    return _edges(mask)


def cover_op(params, seed: int, edges):
    start = process_time()
    r = digraph.Digraph(_COVER_K, edges)
    built = process_time()
    report = cycle_cover.verify_inherited_degrees(r, _COVER_D, BETA)
    res = cycle_cover.cover_by_cycles(r, _COVER_D, seed=seed)
    solved = process_time()
    return built - start, solved - built, lambda: _check_cover(r, report, res)


def _check_cover(r, report, res) -> str | None:
    k = r.n
    if not report.holds:
        return "degree inheritance does not hold"
    covered = [v for c in res.cycles for v in c]
    if len(covered) != len(set(covered)) or set(covered) & res.waste:
        return "cover cycles are not disjoint"
    if len(covered) + len(res.waste) != k:
        return "covered plus waste is not k"
    for c in res.cycles:
        if len(c) < 2 or not all(
            r.has_edge(c[i], c[(i + 1) % len(c)]) for i in range(len(c))
        ):
            return "a cover cycle uses a non-edge"
    # waste <= 7 sqrt(d) k, compared exactly
    if len(res.waste) ** 2 > 49 * _COVER_D * k * k:
        return f"waste {len(res.waste)} exceeds 7*sqrt(d)*k"
    if not all(rec["endpoints_ok"] for rec in res.trace):
        return "a trace record lost the endpoint invariant"
    return None


# -- walks --------------------------------------------------------------------

# (k, c): even k over [20, 40] in an interleaved order, alternating c.
WALKS_CLASSES = tuple(
    (k, Fraction(1, 5) if i % 2 else Fraction(2, 5))
    for i, k in enumerate((20, 32, 24, 36, 28, 40, 22, 34, 26, 38, 30) * 2)
)


def walks_edges(params, seed: int) -> list[tuple[int, int]]:
    k = params[0]
    return _edges(np.random.default_rng(seed).random((k, k)) < 0.9)


def walks_op(params, seed: int, edges):
    k, c = params
    start = process_time()
    r = digraph.Digraph(k, edges)
    f = digraph.OneFactor.from_cycles(
        k, [list(range(k // 2)), list(range(k // 2, k))]
    )
    built = process_time()
    walks = shifted_walks.disjoint_shifted_walks(r, f, 0, k // 2, c)
    solved = process_time()
    return built - start, solved - built, lambda: _check_walks(r, walks, k, c)


def _check_walks(r, walks, k: int, c: Fraction) -> str | None:
    need = ceil(c * c * k / 16)
    if len(walks) < need:
        return f"{len(walks)} walks, need {need}"
    seen: set[int] = set()
    for w in walks:
        w.validate(r)
        if w.t > 2 / c:
            return f"walk crosses {w.t} > 2/c cycles"
        inner = w.internal_clusters()
        if inner & seen:
            return "walks share an internal cluster"
        seen |= inner
    return None


# -- campaign -----------------------------------------------------------------


def _campaign_classes():
    """Three random-condition ops (n over 12..18) to one extremal or
    concluding op: 28 ops per cycle. Five of the seven special ops have n=20,
    so that the p90 tail lies inside the n=20 group, not at its edge."""
    special = iter(
        (("extremal", 20), ("concluding", 20), ("extremal", 16), ("extremal", 20),
         ("concluding", 20), ("extremal", 18), ("concluding", 20))
    )
    classes = []
    for i in range(28):
        if i % 4 == 3:
            classes.append(next(special))
        else:
            classes.append(("random", 12 + (i - i // 4) % 7))
    return tuple(classes)


CAMPAIGN_CLASSES = _campaign_classes()


def campaign_op(params, seed: int, inputs=None):
    kind, n = params
    start = process_time()
    if kind == "random":
        g = generators.gen_random_condition(n, BETA, seed=seed)
    elif kind == "extremal":
        g = conditions.gen_extremal_chvatal(n, 3)
    else:
        g = conditions.gen_concluding_example(n, Fraction(1, 5))
    built = process_time()
    holds = {
        name: checker(g, BETA).holds for name, checker in conditions.CHECKERS.items()
    }
    cert = oracle.brute_force_hamiltonian(g)
    solved = process_time()

    def check():
        if kind == "random" and not holds["semi-exact"]:
            return "random_condition output fails the semi-exact condition"
        if kind != "random" and cert is not None:
            return f"{kind} instance has a Hamilton cycle"
        if cert is not None and not digraph.verify_hamilton_cycle(g, cert):
            return "oracle certificate does not verify"
        return None

    return built - start, solved - built, check


class OpRecord(NamedTuple):
    index: int
    op_s: float  # CPU s of hamlab calls and output check; not the draws
    gen_s: float | None
    solve_s: float | None
    problem: str | None  # the output check failed or raised
    error: str | None  # hamlab raised a HamlabError

    @property
    def ok(self) -> bool:
        return self.problem is None and self.error is None


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple
    op: Callable  # (params, seed, inputs) -> (gen_s, solve_s, check)
    # The tail percentile: the highest of 90/75/50 with at least ten samples
    # beyond it at the default run length, fixed so that a faster or slower
    # commit is compared at the same percentile.
    tail_percentile: int
    # CPU seconds of one cycle at the seed commit on a 2-vCPU Xeon VM
    # (Python 3.11); it converts a run's seconds into its number of cycles.
    cycle_s: float
    draw: Callable | None = None  # (params, seed) -> inputs, untimed

    def warm_up(self, seed: int) -> None:
        self.run(seed, count=1, first=-1)

    def cycles(self, seconds: float) -> int:
        """Whole cycles in a run of ``seconds``: about that much CPU time on
        the reference machine, and at least one cycle."""
        return max(1, round(seconds / self.cycle_s))

    def run(self, seed: int, count: int, tracer=None, first=0, wall_limit=None):
        """Run ops first, ..., first+count-1 and return their records. Past
        ``wall_limit`` seconds of wall time the run stops at the next whole
        cycle, so a very slow host still ends in time.

        An op fails when hamlab raises a HamlabError (``error``) or when its
        output check returns a problem or raises anything (``problem``)."""
        cycle = len(self.classes)
        records: list[OpRecord] = []
        start = perf_counter()
        for i in range(count):
            if (
                wall_limit is not None and i % cycle == 0 and i
                and perf_counter() - start >= wall_limit
            ):
                break
            params, s = self.classes[i % cycle], op_seed(seed, first + i)
            inputs = self.draw(params, s) if self.draw else None
            if tracer is not None:
                tracer.op = i
            t0 = process_time()
            gen_s = solve_s = problem = error = None
            try:
                gen_s, solve_s, check = self.op(params, s, inputs)
            except HamlabError as exc:
                error = f"{type(exc).__name__}: {exc}"
            else:
                try:
                    problem = check()
                except Exception as exc:
                    problem = f"output check raised {type(exc).__name__}: {exc}"
            records.append(OpRecord(i, process_time() - t0, gen_s, solve_s, problem, error))
        return records


WORKLOADS = {
    w.name: w
    for w in (
        Workload("blowup", BLOWUP_CLASSES, blowup_op, 75, 7.1),
        Workload("cover", COVER_CLASSES, cover_op, 75, 2.6, cover_edges),
        Workload("walks", WALKS_CLASSES, walks_op, 90, 4.4, walks_edges),
        Workload("campaign", CAMPAIGN_CLASSES, campaign_op, 90, 1.6),
    )
}
