"""Instance generators: blow-up audit and conditioned random digraphs."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from hamlab import (
    Digraph,
    HamlabError,
    OneFactor,
    ParameterError,
    check_semi_exact,
)
from hamlab.assembly import assemble_hamilton
from hamlab.generators import gen_blowup, gen_random_condition
from hamlab.regular_pairs import Pair, certify_super_regular, cluster_pair, select_ideal


def _template(k=8):
    r0 = Digraph.complete(k)
    f0 = OneFactor.from_cycles(k, [list(range(0, 4)), list(range(4, k))])
    return r0, f0


def test_blowup_shape_and_factor_pairs_certified():
    r0, f0 = _template()
    density = Fraction(7, 10)
    g, part, f = gen_blowup(r0, f0, 10, density, v0_count=2, seed=0)
    assert g.n == 8 * 10 + 2
    assert part.k == 8 and part.m == 10
    assert len(part.v0) == 2
    assert f is f0
    # the emitted instance re-certifies on every factor edge, hard gate
    for i in range(part.k):
        j = f.successor(i)
        pair = Pair.of(g, part.clusters[i], part.clusters[j])
        verdict = certify_super_regular(
            pair, Fraction(2, 5), density / 2, mode="exhaustive"
        )
        assert verdict.regular, (i, j)


def test_blowup_only_template_edges_between_clusters():
    r0 = Digraph(8, [(u, v) for u, v in Digraph.complete(8).edges() if (u, v) != (0, 2)])
    f0 = OneFactor.from_cycles(8, [list(range(0, 4)), list(range(4, 8))])
    g, part, _ = gen_blowup(r0, f0, 6, Fraction(4, 5), seed=1)
    cluster_of = part.cluster_of()
    for u, v in g.edges():
        assert r0.has_edge(cluster_of[u], cluster_of[v])
    # no edges realize the removed template edge and none stay intra-cluster
    assert not any(
        cluster_of[u] == 0 and cluster_of[v] == 2 for u, v in g.edges()
    )


def test_blowup_deterministic():
    r0, f0 = _template()
    a = gen_blowup(r0, f0, 8, Fraction(3, 4), v0_count=1, seed=5)[0]
    b = gen_blowup(r0, f0, 8, Fraction(3, 4), v0_count=1, seed=5)[0]
    assert a.edges() == b.edges()


def test_blowup_parameter_errors():
    r0, f0 = _template()
    with pytest.raises(ParameterError):
        gen_blowup(r0, f0, 7, Fraction(1, 2))  # odd cluster size
    with pytest.raises(ParameterError):
        gen_blowup(r0, f0, 8, Fraction(3, 2))  # density above 1
    with pytest.raises(ParameterError):
        bad = OneFactor.from_cycles(8, [[0, 1, 2], [3, 4, 5, 6, 7]])
        gen_blowup(r0, bad, 8, Fraction(1, 2))  # 3-cycle in the factor
    with pytest.raises(ParameterError):
        sparse = Digraph(8, [(x, (x + 1) % 8) for x in range(8)])
        f_alt = OneFactor.from_cycles(8, [[0, 2, 4, 6], [1, 3, 5, 7]])
        gen_blowup(sparse, f_alt, 8, Fraction(1, 2))  # factor edge missing


def test_random_condition_passes_checker():
    for seed in range(10):
        n = 12 + seed % 7
        g = gen_random_condition(n, Fraction(1, 4), seed=seed)
        assert check_semi_exact(g, Fraction(1, 4)).holds, seed


def test_random_condition_deterministic_and_validated():
    a = gen_random_condition(14, Fraction(1, 4), seed=3)
    b = gen_random_condition(14, Fraction(1, 4), seed=3)
    assert a.edges() == b.edges()
    with pytest.raises(ParameterError):
        gen_random_condition(14, Fraction(1, 2))
    with pytest.raises(ParameterError):
        gen_random_condition(3, Fraction(1, 4))


# sha256 of gen_random_condition(n, 1/4, seed=n).to_json()
_RANDOM_CONDITION_SHA256 = {
    12: "56adbe1e9de9c53f325e174b0481094e22df60d9fa7e617532d613dd66a6ff06",
    13: "678000fb2ddf27c3a0960807605c2d9ff57969acbc3c7afd0948cee7f59f8722",
    14: "b73b95529b331aad6510ad8912af2c4884fdf6b5ac2676875c11860d4d9bd0b9",
    15: "06e3eb19a4ebe95f77218702fc74d5d62b865e0f2fad1c6fedabda92263647a4",
    16: "eb4a1d9139f877f31962ac916ed3b3bfec600f75662ef3af7256c186e2354c26",
    17: "1353bc2ac1f9c7d123065e63b259f030d929b83cb6114b44922a8dd19ef725ce",
    18: "b6fcf3b8b90df26c3a84c3b8da1a9c06551dad8d60fc3a64cc290630a46333a5",
}


@pytest.mark.parametrize("n", sorted(_RANDOM_CONDITION_SHA256))
def test_random_condition_output_pinned(n):
    text = gen_random_condition(n, Fraction(1, 4), seed=n).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == _RANDOM_CONDITION_SHA256[n]


# The benchmark's blowup cycle, (k, m, density, v0) per op, with the input
# seed of op i at benchmark seed 0.
_D70, _D80 = Fraction(7, 10), Fraction(4, 5)
_BLOWUP_CLASSES = (
    (8, 8, _D70, 0), (12, 8, _D70, 0), (12, 8, _D80, 1), (12, 8, _D70, 2),
    (8, 8, _D80, 1), (12, 8, _D80, 0), (12, 10, _D80, 2), (12, 8, _D70, 1),
    (8, 8, _D70, 2), (12, 8, _D80, 2), (12, 8, _D70, 0), (12, 8, _D80, 1),
    (8, 8, _D80, 0), (12, 8, _D70, 2), (12, 8, _D80, 0), (12, 8, _D70, 1),
    (8, 12, _D80, 1), (8, 8, _D70, 1), (12, 8, _D80, 2), (12, 8, _D70, 0),
)


def _op_seed(index):
    return int(np.random.SeedSequence([0, index + 1]).generate_state(1)[0])


def _outcome(call):
    try:
        return call()
    except HamlabError as exc:
        return f"{type(exc).__name__}: {exc}"


def _blowup_record(k, m, density, v0, seed):
    """Everything the blowup pipeline returns for one op, as JSON values:
    the instance, the Hamilton certificate, super-regularity verdicts on
    every template pair at two eps, and ideals on every factor-edge pair."""
    r0 = Digraph.complete(k)
    f0 = OneFactor.from_cycles(k, [list(range(i, i + 4)) for i in range(0, k, 4)])
    g, part, f = gen_blowup(r0, f0, m, density, v0_count=v0, seed=seed)
    d = density / 2
    cert = _outcome(lambda: list(assemble_hamilton(
        g, part, f, r0, Fraction(1, 4), Fraction(2, 5), d, seed=seed).order))
    verdicts = []
    for i, j in r0.edges():
        p = cluster_pair(g, part, i, j)
        for eps in (Fraction(1, 10), Fraction(2, 5)):
            v = certify_super_regular(p, eps, d, mode="exhaustive")
            verdicts.append([v.mode, v.regular, str(v.worst_deviation), v.witness])
    ideals = []
    for i in range(k):
        p = cluster_pair(g, part, i, f.successor(i))
        for theta in (Fraction(1, 5), Fraction(2, 5)):
            ideals.append(_outcome(lambda: [
                sorted(s) for s in select_ideal(p, theta, Fraction(2, 5), d, seed=seed + i)
            ]))
    return [g.to_json(), part.to_json(), cert, verdicts, ideals]


# sha256 of the JSON list of _blowup_record over the 20 benchmark ops
_BLOWUP_SHA256 = "2316eabaa053c112a7a1035a160cc1577b0a4fa311d33373edab3c006915ead8"


def test_blowup_pipeline_output_pinned():
    records = [
        _blowup_record(*_BLOWUP_CLASSES[i], _op_seed(i))
        for i in range(len(_BLOWUP_CLASSES))
    ]
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _BLOWUP_SHA256
