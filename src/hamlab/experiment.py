"""Experiment campaigns: generate, check, solve, oracle, report.

Reports are deterministic given the spec list (modulo timing fields):
instances are reduced in spec order regardless of worker scheduling.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .conditions import CHECKERS, gen_concluding_example, gen_extremal_chvatal
from .digraph import Digraph, verify_hamilton_cycle
from .errors import HamlabError, ParameterError

_GENERATORS = ("extremal_chvatal", "concluding", "blowup", "random_condition")
_CSV_VERSION = "hamlab-report v1"
_CSV_COLUMNS = (
    "generator",
    "seed",
    "parameters",
    "n",
    "gh",
    "posa",
    "nwc",
    "semi-exact",
    "posa-min",
    "kot",
    "solver",
    "oracle",
    "wall_time_s",
    "error",
)


@dataclass(frozen=True)
class InstanceSpec:
    generator: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.generator not in _GENERATORS:
            raise ParameterError(
                f"unknown generator {self.generator!r}; choose from {_GENERATORS}"
            )

    def to_json_obj(self) -> dict:
        return {
            "generator": self.generator,
            "parameters": self.parameters,
            "seed": self.seed,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "InstanceSpec":
        if not isinstance(obj, dict) or "generator" not in obj:
            raise ParameterError(f"a spec is an object with a 'generator', got {obj!r}")
        parameters, seed = obj.get("parameters", {}), obj.get("seed", 0)
        if not isinstance(parameters, dict) or type(seed) is not int:
            raise ParameterError(
                f"a spec needs object parameters and an integer seed, got {obj!r}"
            )
        return cls(obj["generator"], dict(parameters), seed)


@dataclass
class ExperimentReport:
    records: list
    aggregate: dict

    def to_json(self) -> str:
        return json.dumps(
            {"version": _CSV_VERSION, "records": self.records, "aggregate": self.aggregate},
            indent=2,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# {_CSV_VERSION}\n")
        writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for rec in self.records:
            row = dict(rec)
            row["parameters"] = json.dumps(rec.get("parameters", {}), sort_keys=True)
            writer.writerow(row)
        return buf.getvalue()


def _param(p: dict, key: str, parse):
    """``parse(p[key])``, with a missing key or a malformed value raised as
    a ParameterError."""
    if key not in p:
        raise ParameterError(f"missing parameter {key!r}")
    try:
        return parse(p[key])
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"malformed parameter {key}={p[key]!r}: {exc}") from exc


def _fraction(value) -> Fraction:
    return Fraction(str(value))


def _generate(spec: InstanceSpec) -> Digraph:
    p = spec.parameters
    if spec.generator == "extremal_chvatal":
        return gen_extremal_chvatal(_param(p, "n", int), _param(p, "k", int))
    if spec.generator == "concluding":
        return gen_concluding_example(_param(p, "n", int), _param(p, "a", _fraction))
    if spec.generator == "random_condition":
        from .generators import gen_random_condition

        return gen_random_condition(
            _param(p, "n", int), _param(p, "beta", _fraction), spec.seed
        )
    raise ParameterError(
        "blowup instances carry partitions; run them through the solve pipeline"
    )


def run_instance(spec: InstanceSpec) -> dict:
    """One generate -> check -> oracle pass.

    A HamlabError (bad parameters included) is recorded, not raised; any
    other exception, such as a failed oracle check, is a bug and propagates.
    """
    record: dict = {
        "generator": spec.generator,
        "seed": spec.seed,
        "parameters": spec.parameters,
        "n": None,
        "solver": None,
        "oracle": None,
        "error": None,
    }
    for name in CHECKERS:
        record[name] = None
    start = time.monotonic()
    try:
        g = _generate(spec)
        record["n"] = g.n
        beta = _param({"beta": "1/4", **spec.parameters}, "beta", _fraction)
        for name, checker in CHECKERS.items():
            record[name] = checker(g, beta).holds
        # imported per call, so a patched oracle.brute_force_hamiltonian is seen
        from .oracle import _HAMILTON_CAP, brute_force_hamiltonian

        if g.n <= _HAMILTON_CAP:
            cert = brute_force_hamiltonian(g)
            if cert is not None and not verify_hamilton_cycle(g, cert):
                raise AssertionError("oracle emitted a bad certificate")
            record["oracle"] = cert is not None
    except HamlabError as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["wall_time_s"] = round(time.monotonic() - start, 6)
    return record


def run_experiment(specs, parallelism: int = 1) -> ExperimentReport:
    if not isinstance(specs, list):
        raise ParameterError(f"specs must be a list, got {type(specs).__name__}")
    specs = [
        s if isinstance(s, InstanceSpec) else InstanceSpec.from_json_obj(s)
        for s in specs
    ]
    if parallelism <= 1 or len(specs) <= 1:
        records = [run_instance(s) for s in specs]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            records = list(pool.map(run_instance, specs))  # ordered reduction
    aggregate = {
        "instances": len(records),
        "errors": sum(1 for r in records if r["error"]),
        "hamiltonian": sum(1 for r in records if r["oracle"] is True),
        "non_hamiltonian": sum(1 for r in records if r["oracle"] is False),
    }
    for name in CHECKERS:
        aggregate[f"holds_{name}"] = sum(1 for r in records if r.get(name) is True)
    return ExperimentReport(records, aggregate)
