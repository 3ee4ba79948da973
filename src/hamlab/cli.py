"""Command-line interface.

Exit codes, one table for every verb:

0  success.
1  negative: a degree condition or regularity check fails, or the oracle
   finds no Hamilton cycle.
2  usage error: a bad option or parameter, a false precondition, an input
   file that is unreadable, is not valid JSON or describes an invalid
   object, an unwritable output file, an instance too large for an exact
   routine, a malformed certificate.
3  the instance belongs to the other pipeline (connectivity dichotomy).
4  any other HamlabError: a stage contract failed, a search gave up.

Codes 2-4 print one ``error: ...`` line to stderr. An exception that is
not a HamlabError is a bug and propagates.
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
    HamlabError,
    MalformedCertificateError,
    ParameterError,
    PreconditionError,
    ScaleError,
    WrongPipelineError,
)

_EXIT_NEGATIVE = 1
_EXIT_CODES = {
    HamlabError: 4,
    ParameterError: 2,
    PreconditionError: 2,
    ScaleError: 2,
    MalformedCertificateError: 2,
    WrongPipelineError: 3,
}


def exit_code(exc: HamlabError) -> int:
    """The table code of the most specific class of ``exc``."""
    return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)


class _Main(click.Group):
    """A group that turns any HamlabError of its verbs into its exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except HamlabError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exit_code(exc))


def _load(parse, path: str, **kwargs):
    """``parse`` applied to the text of ``path``.

    Input that cannot be read or parsed (bad JSON, a missing key, ...) is
    a ParameterError; an invalid object (a self-loop edge, ...) raises the
    parser's own error.
    """
    try:
        return parse(Path(path).read_text(), **kwargs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ParameterError(str(exc)) from exc


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; an unwritable path is a ParameterError."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParameterError(str(exc)) from exc


def _emit(ctx, text: str) -> None:
    output = ctx.obj["output"]
    if output:
        _write(output, text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)


def _frac(value: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"not a rational: {value!r}")


@click.group(cls=_Main)
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
    if family == "extremal-chvatal":
        if n is None or k is None:
            raise click.UsageError("--family extremal-chvatal needs --n and --k")
        text = gen_extremal_chvatal(n, k).to_json()
    elif family == "concluding":
        if n is None or a is None:
            raise click.UsageError("--family concluding needs --n and --a")
        text = gen_concluding_example(n, _frac(a)).to_json()
    elif family == "random-condition":
        if n is None or beta is None:
            raise click.UsageError("--family random-condition needs --n and --beta")
        from .generators import gen_random_condition

        text = gen_random_condition(n, _frac(beta), seed=ctx.obj["seed"]).to_json()
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
        text = json.dumps(
            {
                "graph": json.loads(g.to_json()),
                "partition": json.loads(part.to_json()),
                "factor": json.loads(f.to_json()),
            }
        )
    _emit(ctx, text)


@main.command()
@click.option("--condition", type=click.Choice(list(CONDITION_NAMES)), required=True)
@click.option("--beta", default=None, help="Rational beta for the beta-parametrized checks.")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.pass_context
def check(ctx, condition, beta, input_path):
    """Run one degree-condition checker; exit 0 if it holds, 1 otherwise."""
    g = _load(Digraph.from_json, input_path)
    report = CHECKERS[condition](g, None if beta is None else _frac(beta))
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
    result = cover_by_cycles(g, _frac(d_value), seed=ctx.obj["seed"])
    if trace_path:
        _write(trace_path, "".join(json.dumps(rec) + "\n" for rec in result.trace))
    cycles = [list(c) for c in result.cycles]
    _emit(ctx, json.dumps({"cycles": cycles, "waste": sorted(result.waste)}))


@main.group()
def pairs():
    """Regular-pair certification, matchings and ideals."""


def _pair_options(verb):
    """The --input/--partition/--i/--j options that name a pair."""
    for option in reversed((
        click.option("--input", "input_path", required=True, type=click.Path(exists=True)),
        click.option("--partition", "partition_path", required=True, type=click.Path(exists=True)),
        click.option("--i", "i_idx", type=int, required=True),
        click.option("--j", "j_idx", type=int, required=True),
    )):
        verb = option(verb)
    return verb


def _load_pair(input_path, partition_path, i, j):
    from .regular_pairs import ClusterPartition, Pair

    g = _load(Digraph.from_json, input_path)
    part = _load(ClusterPartition.from_json, partition_path)
    if not (0 <= i < part.k and 0 <= j < part.k) or i == j:
        raise ParameterError(
            f"--i and --j must be distinct cluster indices in [0, {part.k}), "
            f"got {i} and {j}"
        )
    return Pair.of(g, part.clusters[i], part.clusters[j])


@pairs.command()
@_pair_options
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
    if d_value is None:
        verdict = certify_regular(pair, _frac(eps), mode=mode, seed=ctx.obj["seed"])
    else:
        verdict = certify_super_regular(
            pair, _frac(eps), _frac(d_value), mode=mode, seed=ctx.obj["seed"]
        )
    witness = {k: str(v) for k, v in verdict.witness.items()} if verdict.witness else None
    _emit(
        ctx,
        json.dumps(
            {
                "mode": verdict.mode,
                "regular": verdict.regular,
                "worst_deviation": str(verdict.worst_deviation),
                "witness": witness,
            }
        ),
    )
    sys.exit(0 if verdict.regular else _EXIT_NEGATIVE)


@pairs.command()
@_pair_options
@click.option("--eps", required=True)
@click.option("--super", "super_regular", is_flag=True, default=False)
@click.pass_context
def matching(ctx, input_path, partition_path, i_idx, j_idx, eps, super_regular):
    """Near-perfect (or perfect, with --super) matching in a regular pair."""
    from .regular_pairs import regular_pair_matching

    pair = _load_pair(input_path, partition_path, i_idx, j_idx)
    result = regular_pair_matching(pair, _frac(eps), super_regular=super_regular)
    edges = sorted((pair.a[i], pair.b[j]) for i, j in result.pairs)
    _emit(ctx, json.dumps({"edges": edges}))


@pairs.command()
@_pair_options
@click.option("--theta", required=True)
@click.option("--eps", required=True)
@click.option("--d", "d_value", required=True)
@click.pass_context
def ideal(ctx, input_path, partition_path, i_idx, j_idx, theta, eps, d_value):
    """Select an ideal sub-pair."""
    from .regular_pairs import select_ideal

    pair = _load_pair(input_path, partition_path, i_idx, j_idx)
    a_star, b_star = select_ideal(
        pair, _frac(theta), _frac(eps), _frac(d_value), seed=ctx.obj["seed"]
    )
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
    r2 = build_reduced(g, part, _frac(eps), _frac(d_value), seed=ctx.obj["seed"]).base
    cert = assemble_hamilton(
        g, part, f, r2, _frac(eta), _frac(eps), _frac(d_value), seed=ctx.obj["seed"]
    )
    text = cert.to_json()
    if cert_path:
        _write(cert_path, text + "\n")
    _emit(ctx, text)


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.pass_context
def oracle(ctx, input_path):
    """Exact Hamiltonicity oracle; exit 0 Hamiltonian, 1 not."""
    from .oracle import brute_force_hamiltonian

    cert = brute_force_hamiltonian(_load(Digraph.from_json, input_path))
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

    specs = _load(json.loads, spec_path)
    report = run_experiment(specs, parallelism=ctx.obj["jobs"])
    _emit(ctx, report.to_csv() if ctx.obj["format"] == "csv" else report.to_json())


if __name__ == "__main__":
    main()
