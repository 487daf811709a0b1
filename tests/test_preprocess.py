"""Tests for the simplification rules and their truth preservation."""

import random

from helpers import brute_force, random_problem
from qbfkit.bench import gen_qparity
from qbfkit.formula import (AND, OR, Arena, QbfProblem, Quantifier, Scope,
                            postorder, problems_equal)
from qbfkit.parsing import parse_qcir, parse_qdimacs, write_qcir
from qbfkit.preprocess import preprocess


def test_tautological_or_folds_to_true():
    p = parse_qcir("exists(x)\noutput(g)\ng = or(x, -x)\n")
    reduced, info = preprocess(p)
    assert reduced.matrix_constant() is True
    assert info.eliminated == {}


def test_contradictory_and_folds_to_false():
    p = parse_qcir("exists(x)\noutput(g)\ng = and(x, -x)\n")
    reduced, info = preprocess(p)
    assert reduced.matrix_constant() is False


def test_forced_existential_literal():
    p = parse_qdimacs("p cnf 2 2\ne 1 0\na 2 0\n1 0\n-1 2 0\n")
    reduced, info = preprocess(p)
    # x forced true, leaving forall y . y, whose forced literal falsifies it
    assert reduced.matrix_constant() is False
    assert info.eliminated[1] is True
    assert info.eliminated[2] is False
    assert brute_force(p) is False


def test_forced_universal_literal_makes_problem_false():
    p = parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n1 0\n2 0\n")
    reduced, info = preprocess(p)
    assert reduced.matrix_constant() is False
    assert info.eliminated[1] is False
    assert brute_force(p) is False


def test_pure_existential_literal():
    p = parse_qdimacs("p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n1 -2 0\n")
    reduced, info = preprocess(p)
    assert reduced.matrix_constant() is True
    assert info.eliminated == {1: True}
    # the untouched universal variable keeps its scope
    assert [s.quantifier for s in reduced.prefix] == [Quantifier.FORALL]
    assert brute_force(p) is True


def test_pure_universal_literal_gets_falsifying_value():
    p = parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n-1 2 0\n-1 -2 0\n")
    reduced, info = preprocess(p)
    assert reduced.matrix_constant() is False
    assert info.eliminated[1] is True
    assert brute_force(p) is False


def test_unit_cascade():
    p = parse_qdimacs("p cnf 3 3\ne 1 2 3 0\n1 0\n-1 2 0\n-2 3 0\n")
    reduced, info = preprocess(p)
    assert reduced.matrix_constant() is True
    assert info.eliminated == {1: True, 2: True, 3: True}
    assert info.rounds >= 3


def test_eliminated_variables_leave_the_prefix():
    p = parse_qdimacs("p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 2 3 0\n1 -3 0\n")
    reduced, info = preprocess(p)
    assert 1 in info.eliminated  # pure positive existential
    for scope in reduced.prefix:
        assert 1 not in scope.vars


def test_idempotent():
    rng = random.Random(5)
    for _ in range(40):
        p = random_problem(rng)
        reduced, _ = preprocess(p)
        again, info = preprocess(reduced)
        assert info.eliminated == {}
        assert problems_equal(reduced, again)


def test_truth_preserved_on_random_problems():
    rng = random.Random(6)
    for i in range(150):
        p = random_problem(rng, impure=(i % 2 == 0))
        reduced, info = preprocess(p)
        want = brute_force(p)
        if reduced.matrix_constant() is not None:
            got = reduced.matrix_constant()
        else:
            got = brute_force(reduced)
        assert got == want
        # eliminated variables disappear from matrix and prefix
        remaining = set(reduced.all_vars())
        assert not (set(info.eliminated) & remaining)


def test_parity_formula_passes_through_unchanged():
    # both polarities everywhere, no forced literals, nothing to fold
    text = ("exists(x)\nforall(y)\nexists(z)\noutput(g2)\n"
            "g1 = xor(x, y)\ng2 = xor(g1, z)\n")
    p = parse_qcir(text)
    reduced, info = preprocess(p)
    assert info.eliminated == {}
    assert reduced.matrix_constant() is None
    assert problems_equal(p, reduced)


def test_tree_text_of_qparity_reduces_to_its_dag():
    # write_qcir writes one gate per occurrence; preprocessing copies one
    # node per structural class, which recovers the generator's 253 nodes
    p = parse_qcir(write_qcir(gen_qparity(32)))
    assert len(p.arena) == 4097
    reduced, info = preprocess(p)
    assert info.eliminated == {}
    assert len(reduced.arena) == 253


def test_copies_made_equal_by_substitution_are_merged():
    # y and z are pure existentials set to true, which turns x & y & w and
    # x & z & w into two copies of x & w under different parents
    arena = Arena()
    x, y, z, w, q, r = (arena.lit(v) for v in range(1, 7))
    matrix = arena.build(AND, [
        arena.build(OR, [arena.build(AND, [x, y, w]), q]),
        arena.build(OR, [arena.build(AND, [x, z, w]), r]),
        arena.build(OR, [arena.lit(-1), arena.lit(-4), arena.lit(-5)]),
        arena.build(OR, [arena.lit(-5), arena.lit(-6)]),
        arena.build(OR, [q, r]),
        arena.build(OR, [arena.lit(-1), arena.lit(-6)])])
    p = QbfProblem.make(arena, [Scope(Quantifier.FORALL, (1, 4)),
                                Scope(Quantifier.EXISTS, (2, 3, 5, 6))], matrix)
    reduced, info = preprocess(p)
    assert info.eliminated == {2: True, 3: True}
    kinds, payload = reduced.arena.kinds, reduced.arena.payload
    nodes = postorder(reduced.arena, reduced.matrix)
    classes = [reduced.arena.canon[n] for n in nodes]
    assert len(set(classes)) == len(classes)
    x_and_w = [n for n in nodes if kinds[n] == AND
               and [payload[c] for c in payload[n]] == [1, 4]]
    assert len(x_and_w) == 1
    assert brute_force(reduced) == brute_force(p)
