"""Exact oracles: Hamiltonicity DP vs permutation enumeration, cycle cover."""

import ast
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import hamlab
from hamlab import (
    ContractError,
    Digraph,
    ScaleError,
    brute_force_hamiltonian,
    enumerate_hamiltonian_permutation,
    find_one_factor,
    gen_concluding_example,
    gen_extremal_chvatal,
    max_cycle_cover_coverage,
    verify_hamilton_cycle,
)
from hamlab import oracle
from hamlab.generators import gen_random_condition
from hamlab.oracle import _layers, shortest_path
from helpers import random_digraph, reference_brute_force_hamiltonian


def test_trivial_cases():
    assert brute_force_hamiltonian(Digraph.directed_cycle(6)) is not None
    assert brute_force_hamiltonian(Digraph.complete(8)) is not None
    assert brute_force_hamiltonian(Digraph.directed_path(5)) is None
    assert brute_force_hamiltonian(Digraph(1, [])) is None


def test_extremal_is_non_hamiltonian():
    assert brute_force_hamiltonian(gen_extremal_chvatal(10, 4)) is None


def test_scale_cap():
    with pytest.raises(ScaleError):
        brute_force_hamiltonian(Digraph(21, []))
    with pytest.raises(ScaleError):
        enumerate_hamiltonian_permutation(Digraph(11, []))
    with pytest.raises(ScaleError):
        max_cycle_cover_coverage(Digraph(17, []))


def test_dp_vs_permutation_enumeration():
    """Oracle cross-check on 150 random digraphs, n <= 8."""
    for seed in range(150):
        n = 4 + seed % 5
        g = random_digraph(n, 0.25 + (seed % 4) * 0.15, seed)
        dp = brute_force_hamiltonian(g)
        perm = enumerate_hamiltonian_permutation(g)
        assert (dp is None) == (perm is None), (n, seed)
        if dp is not None:
            assert verify_hamilton_cycle(g, dp)
            assert verify_hamilton_cycle(g, perm)


def _dp_corpus():
    for n in range(2, 17):
        for i, p in enumerate((0.15, 0.3, 0.5, 0.7)):
            yield f"random n={n} p={p}", random_digraph(n, p, 100 * n + i)
    for n in range(12, 21):
        yield f"random_condition n={n}", gen_random_condition(n, Fraction(1, 4), seed=n)
    for n in range(16, 21):
        yield f"extremal n={n}", gen_extremal_chvatal(n, 3)
    yield "concluding n=20", gen_concluding_example(20, Fraction(1, 5))


def test_dp_certificates_equal_reference():
    """The cached-layer DP returns the certificate (or None) of the DP that
    rebuilt its popcount layers per call, on a seeded corpus up to n = 20."""
    answers = set()
    for name, g in _dp_corpus():
        cert = brute_force_hamiltonian(g)
        assert cert == reference_brute_force_hamiltonian(g), name
        answers.add(cert is not None)
    assert answers == {True, False}


def test_layers_cached_read_only_and_ordered():
    order, bounds = _layers(9)
    assert _layers(9) is _layers(9)
    assert not order.flags.writeable
    with pytest.raises(ValueError):
        order[0] = 0
    for c in range(1, 10):
        layer = order[bounds[c] : bounds[c + 1]].tolist()
        expected = [s for s in range(1, 1 << 9, 2) if s.bit_count() == c]
        assert layer == expected, c


def test_unverified_certificate_is_a_contract_error(monkeypatch):
    """The certificate check is a raise, not an assert, so it holds under
    ``python -O`` too."""
    monkeypatch.setattr(oracle, "verify_hamilton_cycle", lambda g, cert: False)
    with pytest.raises(ContractError, match="not a Hamilton cycle"):
        brute_force_hamiltonian(Digraph.directed_cycle(5))


def test_library_has_no_assert_statements():
    """``python -O`` strips assert statements; library checks must raise."""
    found = []
    for path in sorted(Path(hamlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_cycle_cover_trivia():
    assert max_cycle_cover_coverage(Digraph.directed_cycle(9)) == 9
    assert max_cycle_cover_coverage(Digraph.directed_path(6)) == 0  # a DAG
    assert max_cycle_cover_coverage(Digraph(5, [])) == 0
    assert max_cycle_cover_coverage(Digraph.complete(6)) == 6


def test_cycle_cover_concluding_example():
    """Frozen oracle value for the concluding construction, n=10, a=1/5.

    The claimed disjoint-cycle coverage limit of 2*a*n = 4 is exceeded:
    the exact optimum is 6 = 2*(a*n + 1), i.e. both back-edge blocks can
    be fully covered including their overlap vertices.
    """
    g = gen_concluding_example(10, Fraction(1, 5))
    assert max_cycle_cover_coverage(g) == 6


def _brute_cycle_cover_coverage(g):
    """Vertices moved by the best permutation whose every move is an edge:
    its non-fixed points are exactly a set of disjoint cycles of g."""
    best = 0
    for perm in permutations(range(g.n)):
        moved = [v for v in range(g.n) if perm[v] != v]
        if all(g.has_edge(v, perm[v]) for v in moved):
            best = max(best, len(moved))
    return best


def test_cycle_cover_vs_brute_force():
    """Exact integer optimum equals enumeration over partial permutations,
    on 60 seeded random digraphs with n <= 7."""
    for seed in range(60):
        n = 2 + seed % 6
        g = random_digraph(n, 0.15 + (seed % 5) * 0.15, seed)
        assert max_cycle_cover_coverage(g) == _brute_cycle_cover_coverage(g), seed


def test_cycle_cover_full_iff_one_factor():
    """Two independent routes agree: full coverage exactly when the
    matching-based search finds a 1-factor, on 100 digraphs with n <= 16."""
    for seed in range(100):
        n = 2 + seed % 15
        g = random_digraph(n, 0.05 + (seed % 6) * 0.06, 1000 + seed)
        full = max_cycle_cover_coverage(g) == g.n
        assert full == (find_one_factor(g).factor is not None), (n, seed)


def test_shortest_path():
    c = Digraph.directed_cycle(5)
    assert shortest_path(c, 0, 3) == [0, 1, 2, 3]
    assert shortest_path(c, 0, 0) == [0]
    from hamlab import UnreachableError

    with pytest.raises(UnreachableError):
        shortest_path(Digraph.directed_path(4), 3, 0)
