"""Spans around hamlab's public functions, recorded from the benchmark.

``Tracer.install`` replaces each traced function with a recording wrapper on
every loaded hamlab module that binds it, so calls through re-bound names
(``hamlab.generators.certify_super_regular``, ``hamlab.assembly.select_ideal``,
``hamlab.shifted_walks.find_separator``, ...) are recorded too; ``uninstall``
puts the originals back. Constructors and methods are wrapped on their class,
and the ``CHECKERS`` entries in place. Untraced runs never install a tracer.

A span is (name, op, parent, start, end, self_s, failed, counts), its times
in process CPU seconds like the op times: ``parent``
is the index of the enclosing span or -1, ``self_s`` the span's time minus
that of its direct children, and ``counts`` the exact work counts noted for
the call. Spans are kept in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import process_time
from typing import NamedTuple


def _edges(args, result):
    """Edges of the Digraph built or of the BipartiteGraph matched."""
    return {"edges": args[0].edge_count()}


def _audit(args, result):
    """An exhaustive audit enumerates every row subset of the pair: 2^|A|.
    A verdict whose witness names a vertex stopped at the degree floors."""
    enumerated = result.witness is None or "vertex" not in result.witness
    return {
        "subsets": 2 ** len(args[0].a) if enumerated else 0,
        "accepted": int(result.regular),
    }


def _dp_states(args, result):
    n = args[0].n
    return {"dp_states": n * 2 ** (n - 1) if n >= 2 else 0}


def _cover(args, result):
    return {"trace_steps": len(result.trace), "waste": len(result.waste)}


# (module, attribute, span name, counter). "Class.method" wraps on the class.
TARGETS = (
    ("hamlab.digraph", "Digraph.__init__", "digraph.Digraph", _edges),
    ("hamlab.digraph", "OneFactor.__init__", "digraph.OneFactor", None),
    ("hamlab.digraph", "verify_hamilton_cycle", "digraph.verify_hamilton_cycle", None),
    ("hamlab.matching", "max_matching", "matching.max_matching", _edges),
    ("hamlab.matching", "find_one_factor", "matching.find_one_factor", None),
    ("hamlab.matching", "find_separator", "matching.find_separator", None),
    ("hamlab.matching", "is_strongly_k_connected", "matching.is_strongly_k_connected", None),
    ("hamlab.matching", "internally_disjoint_paths", "matching.internally_disjoint_paths", None),
    ("hamlab.regular_pairs", "certify_super_regular", "regular_pairs.certify_super_regular", _audit),
    ("hamlab.regular_pairs", "select_ideal", "regular_pairs.select_ideal", None),
    ("hamlab.cycle_cover", "verify_inherited_degrees", "cycle_cover.verify_inherited_degrees", None),
    ("hamlab.cycle_cover", "partition_cycles_paths", "cycle_cover.partition_cycles_paths", None),
    ("hamlab.cycle_cover", "cover_by_cycles", "cycle_cover.cover_by_cycles", _cover),
    ("hamlab.shifted_walks", "build_H", "shifted_walks.build_H", None),
    ("hamlab.shifted_walks", "find_shifted_walk", "shifted_walks.find_shifted_walk", None),
    ("hamlab.shifted_walks", "disjoint_shifted_walks", "shifted_walks.disjoint_shifted_walks", None),
    ("hamlab.shifted_walks", "ShiftedWalk.validate", "shifted_walks.ShiftedWalk.validate", None),
    ("hamlab.assembly", "reserve_ideals", "assembly.reserve_ideals", None),
    ("hamlab.assembly", "assign_exceptional", "assembly.assign_exceptional", None),
    ("hamlab.assembly", "build_walk", "assembly.build_walk", None),
    ("hamlab.assembly", "fix_edges", "assembly.fix_edges", None),
    ("hamlab.assembly", "complete_factor", "assembly.complete_factor", None),
    ("hamlab.assembly", "merge_at_cluster", "assembly.merge_at_cluster", None),
    ("hamlab.assembly", "assemble_hamilton", "assembly.assemble_hamilton", None),
    ("hamlab.oracle", "brute_force_hamiltonian", "oracle.brute_force_hamiltonian", _dp_states),
    ("hamlab.conditions", "check_semi_exact", "conditions.check_semi_exact", None),
    ("hamlab.conditions", "gen_extremal_chvatal", "conditions.gen_extremal_chvatal", None),
    ("hamlab.conditions", "gen_concluding_example", "conditions.gen_concluding_example", None),
    ("hamlab.generators", "gen_blowup", "generators.gen_blowup", None),
    ("hamlab.generators", "gen_random_condition", "generators.gen_random_condition", None),
)
CHECKERS_SPAN = "conditions.checkers"
SPAN_NAMES = tuple(t[2] for t in TARGETS) + (CHECKERS_SPAN,)

# Counts (besides calls) summed into per-layer metrics: span name -> keys.
COUNT_METRICS = {
    "digraph.Digraph": {"edges": "digraph.Digraph.edges"},
    "matching.max_matching": {"edges": "matching.max_matching.edges"},
    "regular_pairs.certify_super_regular": {"subsets": "regular_pairs.audit_subsets"},
    "oracle.brute_force_hamiltonian": {"dp_states": "oracle.dp_states"},
    "cycle_cover.cover_by_cycles": {
        "trace_steps": "cycle_cover.trace_steps",
        "waste": "cycle_cover.waste",
    },
}
FAILURE_METRICS = ("regular_pairs.select_ideal",)


class Span(NamedTuple):
    name: str
    op: int
    parent: int
    start: float
    end: float
    self_s: float
    failed: bool
    counts: tuple | None  # ((key, value), ...)


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[list] = []  # [span index, child time] per open span
        self._undo: list = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(t[0]) for t in TARGETS]
        loaded = [
            m for key, m in sys.modules.items()
            if key == "hamlab" or key.startswith("hamlab.")
        ]
        for module, (_, attr, name, counter) in zip(modules, TARGETS):
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[method]
                self._set(cls, method, orig, self._wrap(orig, name, counter))
                continue
            orig = getattr(module, attr)
            traced = self._wrap(orig, name, counter)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, orig, traced)
        checkers = importlib.import_module("hamlab.conditions").CHECKERS
        for key, fn in list(checkers.items()):
            checkers[key] = self._wrap(fn, CHECKERS_SPAN, None)
            self._undo.append((checkers.__setitem__, key, fn))

    def _set(self, obj, key, orig, traced) -> None:
        setattr(obj, key, traced)
        self._undo.append((functools.partial(setattr, obj), key, orig))

    def uninstall(self) -> None:
        while self._undo:
            put, key, orig = self._undo.pop()
            put(key, orig)

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(fn, name, counter, args, kwargs)

        return traced

    def _call(self, fn, name, counter, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)  # reserved, so that child spans can name it
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([index, 0.0])
        failed, result = True, None
        start = process_time()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = process_time()
            _, child_s = self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            counts = None
            if counter is not None and not failed:
                # a tuple of atomic values, which the cyclic GC stops tracking
                counts = tuple(counter(args, result).items())
            self.spans[index] = Span(
                name, self.op, parent, start, end, end - start - child_s, failed, counts
            )

    # -- summaries ----------------------------------------------------------

    def op_counts(self) -> dict[int, Counter]:
        """Per op, every count that must repeat exactly for a seed."""
        result: dict[int, Counter] = defaultdict(Counter)
        for span in self.spans:
            c = result[span.op]
            c[span.name + ".calls"] += 1
            c[span.name + ".failures"] += span.failed
            for key, value in span.counts or ():
                c[f"{span.name}.{key}"] += value
            if (
                span.name == "conditions.check_semi_exact"
                and span.parent >= 0
                and self.spans[span.parent].name == "generators.gen_random_condition"
            ):
                c["generators.repair_checks"] += 1
        return dict(result)

    def layer_metrics(self, ops) -> dict[str, float]:
        """Per-layer metrics summed over the given ops."""
        ops = set(ops)
        counts = Counter()
        for op, c in self.op_counts().items():
            if op in ops:
                counts.update(c)
        out: dict[str, float] = {}
        self_s = Counter()
        for s in self.spans:
            if s.op in ops:
                self_s[s.name] += s.self_s
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = counts[f"{name}.calls"]
            out[f"{name}.self_s"] = self_s[name]
        for name in FAILURE_METRICS:
            out[f"{name}.failures"] = counts[f"{name}.failures"]
        for name, keys in COUNT_METRICS.items():
            for key, metric in keys.items():
                out[metric] = counts[f"{name}.{key}"]
        audits = counts["regular_pairs.certify_super_regular.calls"]
        accepted = counts["regular_pairs.certify_super_regular.accepted"]
        out["regular_pairs.audit_accept_ratio"] = accepted / audits if audits else 0.0
        out["generators.repair_checks"] = counts["generators.repair_checks"]
        return out

    def top_level_s(self, op: int) -> float:
        """Time of op ``op`` spent inside any span."""
        return sum(s.end - s.start for s in self.spans if s.op == op and s.parent < 0)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
