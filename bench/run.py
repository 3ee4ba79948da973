"""hamlab benchmark: one closed-loop client in one single-threaded process.

Run from the repository root:

    python3 bench/run.py --workload blowup --seed 1 --seconds 20 --trace 0

Each op takes one instance from generation to a checked answer through
hamlab's public calls (see workloads.py); the next op starts when the previous
one ends. The timed loop runs the whole cycles of the workload's parameter
classes that take about ``--seconds`` of CPU time on the reference machine;
the number of cycles depends on ``--seconds`` only, so every run with a seed
runs the same ops. Times are process CPU time (see workloads.py).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the cycles of
half of ``--seconds`` untraced, runs the same ops again with spans recorded
around every traced hamlab function (tracing.py), replays the first cycle
traced to check that the work counts repeat exactly, and prints the per-layer
metrics of the first cycle. Both print a report, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``; a copy of the report
goes to ``bench/out``. The sources are imported from ``src`` next to this
directory; without them the benchmark exits with an error.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_SAMPLES = 3


def wall_limit(seconds: float) -> float:
    """Wall seconds after which a timed loop stops at the next whole cycle:
    never reached on a host near the reference speed."""
    return 3 * seconds


def set_up(name: str):
    """Import hamlab from ``src`` and return workload ``name``."""
    if not (SRC / "hamlab" / "__init__.py").is_file():
        sys.exit(f"bench: no hamlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hamlab

    if Path(hamlab.__file__).resolve().parent != SRC / "hamlab":
        sys.exit(f"bench: imported hamlab from {hamlab.__file__}, not {SRC}")
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        sys.exit(f"bench: unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name]


def setup_sample(args) -> float:
    """CPU seconds a fresh interpreter spends from its start until it could
    start its first timed op: imports plus one warm-up op."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
    return json.loads(done.stdout.splitlines()[-1])["ready_cpu_s"]


def end_to_end(wl, records, setup_samples, wall_s) -> tuple[dict, dict]:
    ok = [r for r in records if r.ok]
    # the timed loop: every op's hamlab calls and checks, not the draws
    elapsed = sum(r.op_s for r in records)
    # Throughput at the median time of each op in the cycle: a burst of host
    # contention that slows one pass over a class does not move it.
    by_class: dict[int, list[float]] = {}
    for r in records:
        by_class.setdefault(r.index % len(wl.classes), []).append(r.op_s)
    median_loop_s = sum(len(t) * statistics.median(t) for t in by_class.values())
    op_times = [r.op_s for r in ok]
    tail = float(np.percentile(op_times, wl.tail_percentile))
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(ok) / median_loop_s,
        "op_p50_s": statistics.median(op_times),
        "op_tail_s": tail,
        "gen_p50_s": statistics.median(r.gen_s for r in ok),
        "solve_p50_s": statistics.median(r.solve_s for r in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "tail_percentile": wl.tail_percentile,
        "tail_samples_beyond": sum(1 for t in op_times if t > tail),
        "ops_attempted": len(records),
        "failed_ratio": (len(records) - len(ok)) / len(records),
        "setup_samples_s": setup_samples,
        "timed_loop_cpu_s": elapsed,
        "ops_per_s_of_timed_loop": len(ok) / elapsed,
        "timed_loop_wall_s": wall_s,
    }
    return values, notes


def per_layer(wl, seed: int, seconds: float):
    """Untraced pass, traced pass over the same ops, traced replay of the
    first cycle. Returns (metrics, notes, traced records, all problems)."""
    from tracing import Tracer

    cycle = len(wl.classes)
    base = wl.run(
        seed, count=wl.cycles(seconds / 2) * cycle, wall_limit=wall_limit(seconds / 2)
    )
    passes = []
    for count in (len(base), cycle):
        tracer = Tracer()
        tracer.install()
        try:
            records = wl.run(seed, count=count, tracer=tracer)
        finally:
            tracer.uninstall()
        passes.append((tracer, records))
    (tracer, traced), (replay, replayed) = passes

    window = range(cycle)
    first, second = tracer.op_counts(), replay.op_counts()
    mismatched = [i for i in window if first.get(i) != second.get(i)]
    metrics = tracer.layer_metrics(window)
    own_s = sum(traced[i].op_s - tracer.top_level_s(i) for i in window)
    metrics["bench.op_s"] = sum(traced[i].op_s for i in window)
    metrics["bench.own_s"] = own_s
    metrics["bench.trace_overhead"] = statistics.median(
        r.op_s for r in traced
    ) / statistics.median(r.op_s for r in base)
    notes = {
        "window_ops": len(window),
        "untraced_ops": len(base),
        "counts_repeat": not mismatched,
        "count_mismatch_ops": mismatched,
        "span_self_s_plus_own_s": own_s + sum(
            s.self_s for s in tracer.spans if s.op in window
        ),
    }
    problems = [r for r in base + traced + replayed if not r.ok]
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}.jsonl")
    return metrics, notes, traced, problems


def environment(seed: int) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    wl = set_up(args.workload)
    wl.warm_up(args.seed)
    if args.setup_probe:
        print(json.dumps({"ready_cpu_s": time.process_time()}))
        return 0

    env = environment(args.seed)
    if args.trace:
        values, notes, records, problems = per_layer(wl, args.seed, args.seconds)
        correct = not any(r.problem for r in problems) and notes["counts_repeat"]
    else:
        samples = [setup_sample(args) for _ in range(SETUP_SAMPLES)]
        count = wl.cycles(args.seconds) * len(wl.classes)
        start = time.perf_counter()
        records = wl.run(args.seed, count, wall_limit=wall_limit(args.seconds))
        wall_s = time.perf_counter() - start
        problems = [r for r in records if not r.ok]
        if len(problems) == len(records):
            sys.exit("bench: every op failed")
        values, notes = end_to_end(wl, records, samples, wall_s)
        correct = not any(r.problem for r in problems)

    units = declared_units("per_layer" if args.trace else "end_to_end", values)
    report = {
        "workload": wl.name, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "notes": notes,
        "problems": [r._asdict() for r in problems],
        "ops": [[r.index, r.op_s, r.gen_s, r.solve_s] for r in records],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str)
    )
    print(f"hamlab bench: workload={wl.name} seed={args.seed} trace={args.trace}")
    print("environment: " + json.dumps(env))
    print("notes: " + json.dumps(notes))
    for r in problems:
        print(f"op {r.index} failed: {r.problem or r.error}")
    for name, value in values.items():
        print(f"{name:45s} {value:>14.6g} {units[name]}")
    if not args.trace:
        print(f"{'failed_ratio':45s} {notes['failed_ratio']:>14.6g} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if not r.ok),
        "metrics": report["metrics"],
    }))
    return 0


def declared_units(key: str, values: dict) -> dict:
    """Units from BENCHMARK.json, which must declare exactly these metrics."""
    declared = {
        m["name"]: m["unit"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    }
    if sorted(declared) != sorted(values):
        sys.exit(
            f"bench: {key} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(values))}, "
            f"undeclared {sorted(set(values) - set(declared))}"
        )
    return declared


if __name__ == "__main__":
    sys.exit(main())
