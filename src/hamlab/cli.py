"""Command-line interface.

Exit codes: 0 success, 1 condition/check negative, 2 usage error,
3 wrong-pipeline, 4 stage/contract failure.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from .conditions import (
    CHECKERS,
    CONDITION_NAMES,
    gen_concluding_example,
    gen_extremal_chvatal,
)
from .digraph import Digraph, OneFactor
from .errors import (
    ContractError,
    HamlabError,
    ParameterError,
    PreconditionError,
    SearchFailureError,
    WrongPipelineError,
)

_EXIT_NEGATIVE = 1
_EXIT_USAGE = 2
_EXIT_WRONG_PIPELINE = 3
_EXIT_STAGE = 4


def _load(parse, path: str, **kwargs):
    """``parse`` applied to the text of ``path``.

    Input that cannot be read or parsed, or that parses into an invalid
    object (bad JSON, a missing key, a self-loop edge, ...), is a usage
    error: exit 2.
    """
    try:
        return parse(Path(path).read_text(), **kwargs)
    except (OSError, ValueError, KeyError, ParameterError, PreconditionError) as exc:
        _fail(exc, _EXIT_USAGE)


def _emit(ctx, text: str) -> None:
    output = ctx.obj.get("output")
    if output:
        Path(output).write_text(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)


def _frac(value: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"not a rational: {value!r}")


def _fail(exc: Exception, code: int):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


@click.group()
@click.option("--seed", type=int, default=0, show_default=True, help="RNG seed.")
@click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
    show_default=True,
)
@click.option("--output", type=click.Path(), default=None, help="Write here instead of stdout.")
@click.option("--jobs", type=int, default=1, show_default=True, help="Worker pool size.")
@click.pass_context
def main(ctx, seed, fmt, output, jobs):
    """Digraph Hamiltonicity laboratory."""
    ctx.obj = {"seed": seed, "format": fmt, "output": output, "jobs": jobs}


@main.command()
@click.option(
    "--family",
    type=click.Choice(["extremal-chvatal", "concluding", "blowup", "random-condition"]),
    required=True,
)
@click.option("--n", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--a", default=None, help="Rational block fraction (concluding).")
@click.option("--beta", default=None, help="Rational beta (random-condition).")
@click.option("--m", type=int, default=None, help="Cluster size (blowup).")
@click.option("--density", default=None, help="Pair density (blowup).")
@click.option("--v0", "v0_count", type=int, default=0, help="Exceptional count (blowup).")
@click.option("--template", default=None, help="Template digraph JSON (blowup).")
@click.option("--factor", default=None, help="Template factor JSON (blowup).")
@click.pass_context
def gen(ctx, family, n, k, a, beta, m, density, v0_count, template, factor):
    """Generate an instance and emit its JSON."""
    try:
        if family == "extremal-chvatal":
            if n is None or k is None:
                raise click.UsageError("--family extremal-chvatal needs --n and --k")
            g = gen_extremal_chvatal(n, k)
            _emit(ctx, g.to_json())
        elif family == "concluding":
            if n is None or a is None:
                raise click.UsageError("--family concluding needs --n and --a")
            g = gen_concluding_example(n, _frac(a))
            _emit(ctx, g.to_json())
        elif family == "random-condition":
            if n is None or beta is None:
                raise click.UsageError("--family random-condition needs --n and --beta")
            from .generators import gen_random_condition

            g = gen_random_condition(n, _frac(beta), seed=ctx.obj["seed"])
            _emit(ctx, g.to_json())
        else:
            if not (template and factor and m and density):
                raise click.UsageError(
                    "--family blowup needs --template, --factor, --m, --density"
                )
            from .generators import gen_blowup

            r0 = _load(Digraph.from_json, template)
            f0 = _load(OneFactor.from_json, factor, host=r0)
            g, part, f = gen_blowup(
                r0, f0, m, _frac(density), v0_count, seed=ctx.obj["seed"]
            )
            bundle = {
                "graph": json.loads(g.to_json()),
                "partition": json.loads(part.to_json()),
                "factor": json.loads(f.to_json()),
            }
            _emit(ctx, json.dumps(bundle))
    except (ParameterError, PreconditionError) as exc:
        _fail(exc, _EXIT_USAGE)
    except HamlabError as exc:
        _fail(exc, _EXIT_STAGE)


@main.command()
@click.option("--condition", type=click.Choice(list(CONDITION_NAMES)), required=True)
@click.option("--beta", default=None, help="Rational beta for the beta-parametrized checks.")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.pass_context
def check(ctx, condition, beta, input_path):
    """Run one degree-condition checker; exit 0 if it holds, 1 otherwise."""
    g = _load(Digraph.from_json, input_path)
    try:
        report = CHECKERS[condition](g, None if beta is None else _frac(beta))
    except (ParameterError, PreconditionError) as exc:
        _fail(exc, _EXIT_USAGE)
    _emit(ctx, report.to_json())
    sys.exit(0 if report.holds else _EXIT_NEGATIVE)


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--d", "d_value", required=True, help="Rational density parameter.")
@click.option("--trace", "trace_path", default=None, type=click.Path())
@click.pass_context
def cover(ctx, input_path, d_value, trace_path):
    """Cover a reduced digraph by cycles with bounded waste."""
    from .cycle_cover import cover_by_cycles

    g = _load(Digraph.from_json, input_path)
    try:
        result = cover_by_cycles(g, _frac(d_value), seed=ctx.obj["seed"])
    except (ParameterError, PreconditionError) as exc:
        _fail(exc, _EXIT_USAGE)
    except ContractError as exc:
        _fail(exc, _EXIT_STAGE)
    if trace_path:
        with open(trace_path, "w") as fh:
            for rec in result.trace:
                fh.write(json.dumps(rec) + "\n")
    _emit(
        ctx,
        json.dumps(
            {
                "cycles": [list(c) for c in result.cycles],
                "waste": sorted(result.waste),
            }
        ),
    )


@main.group()
def pairs():
    """Regular-pair certification, matchings and ideals."""


def _load_pair(input_path, partition_path, i, j):
    from .regular_pairs import ClusterPartition, Pair

    g = _load(Digraph.from_json, input_path)
    part = _load(ClusterPartition.from_json, partition_path)
    if not (0 <= i < part.k and 0 <= j < part.k) or i == j:
        _fail(
            ParameterError(
                f"--i and --j must be distinct cluster indices in [0, {part.k}), "
                f"got {i} and {j}"
            ),
            _EXIT_USAGE,
        )
    return Pair(g, part.clusters[i], part.clusters[j])


@pairs.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--partition", "partition_path", required=True, type=click.Path(exists=True))
@click.option("--i", "i_idx", type=int, required=True)
@click.option("--j", "j_idx", type=int, required=True)
@click.option("--eps", required=True)
@click.option("--d", "d_value", default=None, help="Adds the super-regularity floors.")
@click.option(
    "--mode", type=click.Choice(["auto", "exhaustive", "sampled"]), default="auto",
    show_default=True,
)
@click.pass_context
def certify(ctx, input_path, partition_path, i_idx, j_idx, eps, d_value, mode):
    """Certify (eps)-regularity, or (eps, d)-super-regularity with --d."""
    from .regular_pairs import certify_regular, certify_super_regular

    pair = _load_pair(input_path, partition_path, i_idx, j_idx)
    try:
        if d_value is None:
            verdict = certify_regular(pair, _frac(eps), mode=mode, seed=ctx.obj["seed"])
        else:
            verdict = certify_super_regular(
                pair, _frac(eps), _frac(d_value), mode=mode, seed=ctx.obj["seed"]
            )
    except (ParameterError, PreconditionError) as exc:
        _fail(exc, _EXIT_USAGE)
    _emit(
        ctx,
        json.dumps(
            {
                "mode": verdict.mode,
                "regular": verdict.regular,
                "worst_deviation": str(verdict.worst_deviation),
                "witness": {k: str(v) for k, v in (verdict.witness or {}).items()}
                if verdict.witness
                else None,
            }
        ),
    )
    sys.exit(0 if verdict.regular else _EXIT_NEGATIVE)


@pairs.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--partition", "partition_path", required=True, type=click.Path(exists=True))
@click.option("--i", "i_idx", type=int, required=True)
@click.option("--j", "j_idx", type=int, required=True)
@click.option("--eps", required=True)
@click.option("--super", "super_regular", is_flag=True, default=False)
@click.pass_context
def matching(ctx, input_path, partition_path, i_idx, j_idx, eps, super_regular):
    """Near-perfect (or perfect, with --super) matching in a regular pair."""
    from .regular_pairs import regular_pair_matching

    pair = _load_pair(input_path, partition_path, i_idx, j_idx)
    try:
        result = regular_pair_matching(pair, _frac(eps), super_regular=super_regular)
    except ContractError as exc:
        _fail(exc, _EXIT_STAGE)
    edges = sorted((pair.a[i], pair.b[j]) for i, j in result.pairs)
    _emit(ctx, json.dumps({"edges": edges}))


@pairs.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--partition", "partition_path", required=True, type=click.Path(exists=True))
@click.option("--i", "i_idx", type=int, required=True)
@click.option("--j", "j_idx", type=int, required=True)
@click.option("--theta", required=True)
@click.option("--eps", required=True)
@click.option("--d", "d_value", required=True)
@click.pass_context
def ideal(ctx, input_path, partition_path, i_idx, j_idx, theta, eps, d_value):
    """Select an ideal sub-pair."""
    from .regular_pairs import select_ideal

    pair = _load_pair(input_path, partition_path, i_idx, j_idx)
    try:
        a_star, b_star = select_ideal(
            pair, _frac(theta), _frac(eps), _frac(d_value), seed=ctx.obj["seed"]
        )
    except (ParameterError, PreconditionError) as exc:
        _fail(exc, _EXIT_USAGE)
    except HamlabError as exc:
        _fail(exc, _EXIT_STAGE)
    _emit(ctx, json.dumps({"a_star": sorted(a_star), "b_star": sorted(b_star)}))


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--partition", "partition_path", required=True, type=click.Path(exists=True))
@click.option("--factor", "factor_path", required=True, type=click.Path(exists=True))
@click.option("--eta", required=True, help="Rational connectivity parameter.")
@click.option("--eps", default="2/5", show_default=True)
@click.option("--d", "d_value", default="7/20", show_default=True)
@click.option("--cert", "cert_path", default=None, type=click.Path())
@click.pass_context
def solve(ctx, input_path, partition_path, factor_path, eta, eps, d_value, cert_path):
    """Run the clustered assembly pipeline to a verified Hamilton cycle."""
    from .assembly import assemble_hamilton
    from .regular_pairs import ClusterPartition, build_reduced

    g = _load(Digraph.from_json, input_path)
    part = _load(ClusterPartition.from_json, partition_path)
    f = _load(OneFactor.from_json, factor_path)
    try:
        r2 = build_reduced(g, part, _frac(eps), _frac(d_value), seed=ctx.obj["seed"]).base
        cert = assemble_hamilton(
            g, part, f, r2, _frac(eta), _frac(eps), _frac(d_value),
            seed=ctx.obj["seed"],
        )
    except (ParameterError, PreconditionError) as exc:
        _fail(exc, _EXIT_USAGE)
    except WrongPipelineError as exc:
        _fail(exc, _EXIT_WRONG_PIPELINE)
    except (ContractError, SearchFailureError, HamlabError) as exc:
        _fail(exc, _EXIT_STAGE)
    text = cert.to_json()
    if cert_path:
        Path(cert_path).write_text(text + "\n")
    _emit(ctx, text)


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.pass_context
def oracle(ctx, input_path):
    """Exact Hamiltonicity oracle; exit 0 Hamiltonian, 1 not."""
    from .oracle import brute_force_hamiltonian

    g = _load(Digraph.from_json, input_path)
    try:
        cert = brute_force_hamiltonian(g)
    except HamlabError as exc:
        _fail(exc, _EXIT_USAGE)
    if cert is None:
        _emit(ctx, json.dumps({"hamiltonian": False, "order": None}))
        sys.exit(_EXIT_NEGATIVE)
    _emit(ctx, json.dumps({"hamiltonian": True, "order": list(cert.order)}))


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.pass_context
def experiment(ctx, spec_path):
    """Run a campaign from a JSON list of instance specs."""
    from .experiment import run_experiment

    try:
        specs = _load(json.loads, spec_path)
        report = run_experiment(specs, parallelism=ctx.obj["jobs"])
    except (ParameterError, ValueError, KeyError) as exc:
        _fail(exc, _EXIT_USAGE)
    if ctx.obj["format"] == "csv":
        _emit(ctx, report.to_csv())
    else:
        _emit(ctx, report.to_json())


if __name__ == "__main__":
    main()
