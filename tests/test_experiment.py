"""Experiment campaigns and the command-line surface."""

import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from hamlab import Digraph, OneFactor, ParameterError
from hamlab.cli import main
from hamlab.experiment import (
    ExperimentReport,
    InstanceSpec,
    run_experiment,
    run_instance,
)


def test_spec_validation_and_round_trip():
    spec = InstanceSpec("extremal_chvatal", {"n": 10, "k": 3}, seed=7)
    assert InstanceSpec.from_json_obj(spec.to_json_obj()) == spec
    with pytest.raises(ParameterError):
        InstanceSpec("no-such-generator")


def test_empty_report():
    report = run_experiment([])
    assert report.records == []
    assert report.aggregate["instances"] == 0
    assert report.aggregate["errors"] == 0


def test_run_instance_extremal():
    rec = run_instance(InstanceSpec("extremal_chvatal", {"n": 10, "k": 3}))
    assert rec["error"] is None
    assert rec["n"] == 10
    assert rec["oracle"] is False
    assert rec["nwc"] is False


def test_run_instance_records_errors():
    for params in [
        {"n": 10, "k": 5},  # rejected by the generator
        {"n": 10},  # missing key
        {"n": "ten", "k": 3},  # malformed integer
        {"n": 10, "k": 3, "beta": "x"},  # malformed fraction
    ]:
        rec = run_instance(InstanceSpec("extremal_chvatal", params))
        assert rec["error"] is not None and "ParameterError" in rec["error"]
    for generator, params in [
        ("concluding", {"n": 10, "a": "one fifth"}),
        ("random_condition", {"n": 12, "beta": "1/0"}),
    ]:
        rec = run_instance(InstanceSpec(generator, params))
        assert rec["error"] is not None and "ParameterError" in rec["error"]


def test_run_instance_lets_a_bad_oracle_certificate_propagate(monkeypatch):
    from hamlab import HamiltonCertificate, oracle

    # the extremal digraph is not Hamiltonian, so no order verifies
    monkeypatch.setattr(
        oracle, "brute_force_hamiltonian", lambda g: HamiltonCertificate(tuple(range(g.n)))
    )
    with pytest.raises(AssertionError, match="bad certificate"):
        run_instance(InstanceSpec("extremal_chvatal", {"n": 10, "k": 3}))


def test_duplicate_specs_deterministic_modulo_timing():
    specs = [
        InstanceSpec("random_condition", {"n": 12, "beta": "1/4"}, seed=3),
        InstanceSpec("random_condition", {"n": 12, "beta": "1/4"}, seed=3),
    ]
    report = run_experiment(specs, parallelism=2)
    a, b = (dict(r) for r in report.records)
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


def test_csv_has_versioned_header():
    report = run_experiment([InstanceSpec("extremal_chvatal", {"n": 8, "k": 2})])
    csv_text = report.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "# hamlab-report v1"
    assert lines[1].startswith("generator,seed,parameters,")
    js = json.loads(report.to_json())
    assert js["version"] == "hamlab-report v1"
    assert js["aggregate"]["instances"] == 1


# ---------------------------------------------------------------- CLI


@pytest.fixture
def runner():
    return CliRunner()


def test_cli_gen_check_oracle_pipeline(runner, tmp_path):
    gpath = tmp_path / "g.json"
    res = runner.invoke(
        main,
        ["--output", str(gpath), "gen", "--family", "extremal-chvatal",
         "--n", "10", "--k", "3"],
    )
    assert res.exit_code == 0, res.output
    g = Digraph.from_json(gpath.read_text())
    assert g.n == 10

    res = runner.invoke(
        main, ["check", "--condition", "nwc", "--input", str(gpath)]
    )
    assert res.exit_code == 1  # extremal family fails the condition

    res = runner.invoke(main, ["oracle", "--input", str(gpath)])
    assert res.exit_code == 1
    assert json.loads(res.output)["hamiltonian"] is False

    # a digraph the oracle accepts
    cpath = tmp_path / "c.json"
    cpath.write_text(Digraph.directed_cycle(6).to_json())
    res = runner.invoke(main, ["oracle", "--input", str(cpath)])
    assert res.exit_code == 0
    assert json.loads(res.output)["order"] is not None


def test_cli_check_semi_exact_needs_beta(runner, tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(Digraph.complete(8).to_json())
    res = runner.invoke(
        main, ["check", "--condition", "semi-exact", "--input", str(gpath)]
    )
    assert res.exit_code == 2
    res = runner.invoke(
        main,
        ["check", "--condition", "semi-exact", "--beta", "1/4",
         "--input", str(gpath)],
    )
    assert res.exit_code == 0


def test_cli_usage_errors(runner):
    assert runner.invoke(main, ["gen", "--family", "concluding"]).exit_code == 2
    assert runner.invoke(main, ["no-such-verb"]).exit_code == 2
    res = runner.invoke(
        main, ["gen", "--family", "extremal-chvatal", "--n", "10", "--k", "5"]
    )
    assert res.exit_code == 2  # ParameterError surfaces as usage


@pytest.mark.parametrize(
    "text",
    ['{"n": 3, "edges": [[0, 1], [1', '{"n": 3, "edges": [[0, 1], [1, 1]]}'],
    ids=["truncated", "self-loop"],
)
def test_cli_malformed_input_is_usage_error(runner, tmp_path, text):
    """Truncated JSON and a self-loop edge exit 2, not with a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    other = tmp_path / "other.json"
    other.write_text("{}")
    for args in (
        ["check", "--condition", "gh", "--input", str(bad)],
        ["oracle", "--input", str(bad)],
        ["solve", "--input", str(bad), "--partition", str(other),
         "--factor", str(other), "--eta", "1/4"],
        ["gen", "--family", "blowup", "--template", str(bad),
         "--factor", str(other), "--m", "4", "--density", "1/2"],
    ):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, (args, res.output, res.exception)
        assert res.output.startswith("error: "), args


@pytest.mark.parametrize(
    "i, j", [(99, 1), (-1, 0), (0, 0)], ids=["too-large", "negative", "same"]
)
@pytest.mark.parametrize("verb", ["certify", "matching"])
def test_cli_pair_index_out_of_range_is_usage_error(runner, tmp_path, i, j, verb):
    """--i/--j outside [0, k) or equal exit 2 instead of a traceback or a
    silently wrapped index."""
    gpath = tmp_path / "g.json"
    gpath.write_text(Digraph.complete(8).to_json())
    ppath = tmp_path / "p.json"
    clusters = [[0, 1], [2, 3], [4, 5], [6, 7]]
    ppath.write_text(json.dumps({"v0": [], "clusters": clusters}))
    res = runner.invoke(
        main,
        ["pairs", verb, "--input", str(gpath), "--partition", str(ppath),
         "--i", str(i), "--j", str(j), "--eps", "2/5"],
    )
    assert res.exit_code == 2, (res.output, res.exception)
    assert res.output.startswith("error: ")


def test_cli_cover_with_trace(runner, tmp_path):
    gpath = tmp_path / "r.json"
    gpath.write_text(Digraph.complete(40).to_json())
    tpath = tmp_path / "trace.jsonl"
    res = runner.invoke(
        main,
        ["cover", "--input", str(gpath), "--d", "1/40", "--trace", str(tpath)],
    )
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    covered = sum(len(c) for c in out["cycles"])
    assert covered + len(out["waste"]) == 40
    for line in tpath.read_text().splitlines():
        rec = json.loads(line)
        assert rec["endpoints_ok"]


def _write_blowup(tmp_path, seed=0):
    from hamlab.generators import gen_blowup

    r0 = Digraph.complete(8)
    f0 = OneFactor.from_cycles(8, [list(range(0, 4)), list(range(4, 8))])
    g, part, f = gen_blowup(r0, f0, 10, Fraction(4, 5), v0_count=1, seed=seed)
    gpath = tmp_path / "g.json"
    ppath = tmp_path / "part.json"
    fpath = tmp_path / "f.json"
    gpath.write_text(g.to_json())
    ppath.write_text(part.to_json())
    fpath.write_text(f.to_json())
    return g, gpath, ppath, fpath


def test_cli_pairs_certify_and_matching(runner, tmp_path):
    _, gpath, ppath, _ = _write_blowup(tmp_path)
    res = runner.invoke(
        main,
        ["pairs", "certify", "--input", str(gpath), "--partition", str(ppath),
         "--i", "0", "--j", "1", "--eps", "2/5", "--mode", "exhaustive"],
    )
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["regular"] is True

    res = runner.invoke(
        main,
        ["pairs", "matching", "--input", str(gpath), "--partition", str(ppath),
         "--i", "0", "--j", "1", "--eps", "2/5"],
    )
    assert res.exit_code == 0, res.output
    edges = json.loads(res.output)["edges"]
    assert len(edges) >= 10 - 2 * 10 * 2 // 5  # near-perfect floor
    assert len({u for u, _ in edges}) == len(edges)
    assert len({v for _, v in edges}) == len(edges)


def test_cli_pairs_ideal(runner, tmp_path):
    _, gpath, ppath, _ = _write_blowup(tmp_path)
    res = runner.invoke(
        main,
        ["pairs", "ideal", "--input", str(gpath), "--partition", str(ppath),
         "--i", "0", "--j", "1", "--theta", "1/5", "--eps", "2/5",
         "--d", "2/5"],
    )
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert len(out["a_star"]) == 2 and len(out["b_star"]) == 2


def test_cli_solve_emits_verified_certificate(runner, tmp_path):
    g, gpath, ppath, fpath = _write_blowup(tmp_path, seed=1)
    cert_path = tmp_path / "cert.json"
    res = runner.invoke(
        main,
        ["--seed", "1", "solve", "--input", str(gpath), "--partition",
         str(ppath), "--factor", str(fpath), "--eta", "1/4",
         "--cert", str(cert_path)],
    )
    assert res.exit_code == 0, res.output
    from hamlab import HamiltonCertificate, verify_hamilton_cycle

    cert = HamiltonCertificate.from_json(cert_path.read_text())
    assert verify_hamilton_cycle(g, cert)


def test_cli_solve_wrong_pipeline_exit_code(runner, tmp_path):
    from hamlab.generators import gen_blowup

    r0 = Digraph.directed_cycle(8)
    f0 = OneFactor.from_cycles(8, [list(range(8))])
    g, part, f = gen_blowup(r0, f0, 6, Fraction(9, 10), seed=0)
    gpath = tmp_path / "g.json"
    ppath = tmp_path / "part.json"
    fpath = tmp_path / "f.json"
    gpath.write_text(g.to_json())
    ppath.write_text(part.to_json())
    fpath.write_text(f.to_json())
    res = runner.invoke(
        main,
        ["solve", "--input", str(gpath), "--partition", str(ppath),
         "--factor", str(fpath), "--eta", "1/4", "--d", "2/5"],
    )
    assert res.exit_code == 3, res.output


def test_cli_experiment_csv(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            [
                {"generator": "extremal_chvatal", "parameters": {"n": 10, "k": 3}},
                {"generator": "concluding", "parameters": {"n": 10, "a": "1/5"}},
            ]
        )
    )
    res = runner.invoke(
        main, ["--format", "csv", "experiment", "--spec", str(spec_path)]
    )
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[0] == "# hamlab-report v1"
    assert res.output.count("\n") >= 4


def _failure_cases(tmp_path):
    """Command lines of failures the exit-code table sends to 2, by case id."""
    g = tmp_path / "g.json"
    g.write_text(Digraph.complete(8).to_json())
    big = tmp_path / "big.json"
    big.write_text(Digraph.complete(28).to_json())
    big_part = tmp_path / "big_part.json"
    big_part.write_text(json.dumps({"v0": [], "clusters": [list(range(14)), list(range(14, 28))]}))
    spec_list = tmp_path / "spec_list.json"
    spec_list.write_text("[1, 2]")
    spec_object = tmp_path / "spec_object.json"
    spec_object.write_text('{"generator": "concluding"}')
    _, gpath, ppath, _ = _write_blowup(tmp_path)
    small_factor = tmp_path / "f4.json"
    small_factor.write_text(OneFactor.from_cycles(4, [[0, 1, 2, 3]]).to_json())
    float_factor = tmp_path / "f_float.json"
    float_factor.write_text('{"cycles": [[0, 1.7], [2.2, 3]]}')
    wrong_types = tmp_path / "wrong_types.json"
    wrong_types.write_text('{"n": 3, "edges": 5}')
    template = tmp_path / "template.json"
    template.write_text(Digraph.complete(8).to_json())
    template_factor = tmp_path / "template_factor.json"
    template_factor.write_text(OneFactor.from_cycles(8, [[0, 1, 2, 3], [4, 5, 6, 7]]).to_json())
    nowhere = str(tmp_path / "missing" / "x.json")
    return {
        "check-output": ["--output", nowhere, "check", "--condition", "gh", "--input", str(g)],
        "gen-output": ["--output", nowhere, "gen", "--family", "extremal-chvatal",
                       "--n", "10", "--k", "3"],
        "cover-trace": ["cover", "--input", str(g), "--d", "1/40", "--trace", nowhere],
        "certify-too-large": ["pairs", "certify", "--input", str(big), "--partition",
                              str(big_part), "--i", "0", "--j", "1", "--eps", "2/5",
                              "--mode", "exhaustive"],
        "spec-not-objects": ["experiment", "--spec", str(spec_list)],
        "spec-not-list": ["experiment", "--spec", str(spec_object)],
        "solve-small-factor": ["solve", "--input", str(gpath), "--partition", str(ppath),
                               "--factor", str(small_factor), "--eta", "1/4"],
        "solve-float-factor-label": ["solve", "--input", str(gpath), "--partition",
                                     str(ppath), "--factor", str(float_factor),
                                     "--eta", "1/4"],
        "input-wrong-types": ["check", "--condition", "gh", "--input", str(wrong_types)],
        "gen-clusters-too-large": ["gen", "--family", "blowup", "--template", str(template),
                                   "--factor", str(template_factor), "--m", "14",
                                   "--density", "4/5"],
        "gen-v0-negative": ["gen", "--family", "blowup", "--template", str(template),
                            "--factor", str(template_factor), "--m", "4",
                            "--density", "4/5", "--v0", "-1"],
        "matching-eps-zero": ["pairs", "matching", "--input", str(gpath), "--partition",
                              str(ppath), "--i", "0", "--j", "1", "--eps", "0"],
        "ideal-eps-zero": ["pairs", "ideal", "--input", str(gpath), "--partition",
                           str(ppath), "--i", "0", "--j", "1", "--theta", "1/2",
                           "--eps", "0", "--d", "1/4"],
        "cover-d-negative": ["cover", "--input", str(g), "--d", "-1"],
        "cover-d-zero": ["cover", "--input", str(g), "--d", "0"],
    }


# What the error line of a rejected parameter names, by case id.
_FAILURE_NAMES = {
    "gen-v0-negative": "v0 count",
    "matching-eps-zero": "eps must be",
    "ideal-eps-zero": "eps must be",
    "cover-d-negative": "d must be",
    "cover-d-zero": "d must be",
    "solve-float-factor-label": "vertex label 1.7 is not an integer",
}


@pytest.mark.parametrize(
    "case",
    ["check-output", "gen-output", "cover-trace", "certify-too-large",
     "spec-not-objects", "spec-not-list", "solve-small-factor", "solve-float-factor-label",
     "input-wrong-types", "gen-clusters-too-large", "gen-v0-negative",
     "matching-eps-zero", "ideal-eps-zero", "cover-d-negative", "cover-d-zero"],
)
def test_cli_failure_exits_by_table(runner, tmp_path, case):
    """Unwritable outputs, oversized exhaustive audits, specs and inputs of
    the wrong shape, a factor on the wrong number of clusters, a non-integer
    factor label and out-of-range parameters exit 2 with one error line, not
    a traceback."""
    res = runner.invoke(main, _failure_cases(tmp_path)[case])
    assert res.exit_code == 2, (res.output, res.exception)
    assert res.output.startswith("error: ")
    assert _FAILURE_NAMES.get(case, "") in res.output
    assert isinstance(res.exception, SystemExit)


def test_exit_code_table_matches_readme():
    """Every HamlabError class in errors.py maps to its documented code."""
    import inspect

    from hamlab import errors
    from hamlab.cli import exit_code

    documented = {
        "HamlabError": 4,
        "ParameterError": 2,
        "PreconditionError": 2,
        "MalformedCertificateError": 2,
        "ScaleError": 2,
        "ContractError": 4,
        "UnreachableError": 4,
        "WrongPipelineError": 3,
        "SearchFailureError": 4,
        "GenerationError": 4,
    }
    classes = {
        name: cls
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.HamlabError)
    }
    assert set(classes) == set(documented)
    for name, cls in classes.items():
        assert exit_code(cls("x")) == documented[name], name


@pytest.mark.parametrize(
    "obj",
    [1, {"parameters": {}}, {"generator": "concluding", "seed": "3"},
     {"generator": "concluding", "seed": True},
     {"generator": "concluding", "parameters": [1]}],
    ids=["not-object", "no-generator", "string-seed", "bool-seed", "list-parameters"],
)
def test_spec_of_wrong_shape_is_parameter_error(obj):
    with pytest.raises(ParameterError):
        InstanceSpec.from_json_obj(obj)


def test_spec_document_must_be_a_list():
    with pytest.raises(ParameterError):
        run_experiment({"generator": "concluding"})
