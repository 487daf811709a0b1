"""Tests for the NNF arena, normalization, and problem structure."""

import itertools
import random

import pytest

from qbfkit.formula import (
    AND,
    LIT,
    OR,
    TRUE,
    Arena,
    QbfProblem,
    Quantifier,
    Scope,
    copy_into,
    dependencies,
    evaluate,
    node_vars,
    problems_equal,
    structural_equal,
    subformulas,
)


def build_example(arena: Arena) -> int:
    """x | (~x & y) with x=1, y=2."""
    return arena.build(OR, [arena.lit(1), arena.build(AND, [arena.lit(-1), arena.lit(2)])])


def random_nnf(arena: Arena, rng: random.Random, nvars: int, budget: int) -> int:
    if budget <= 1 or rng.random() < 0.3:
        v = rng.randint(1, nvars)
        return arena.lit(v if rng.random() < 0.5 else -v)
    kind = rng.choice([AND, OR])
    width = rng.randint(2, 3)
    children = [random_nnf(arena, rng, nvars, budget // width) for _ in range(width)]
    return arena.build(kind, children)


def test_build_flattens_same_connective():
    arena = Arena()
    inner = arena.build(AND, [arena.lit(1), arena.lit(2)])
    outer = arena.build(AND, [inner, arena.lit(3)])
    assert arena.kind(outer) == AND
    assert [arena.literal(c) for c in arena.children(outer)] == [1, 2, 3]


def test_build_folds_constants_and_arity():
    arena = Arena()
    t = arena.const(True)
    n = arena.build(AND, [arena.lit(1), t])
    assert arena.kind(n) == LIT and arena.literal(n) == 1

    f = arena.const(False)
    n = arena.build(AND, [arena.lit(1), f])
    assert arena.kind(n) == "false"

    n = arena.build(OR, [arena.const(False), arena.const(False)])
    assert arena.kind(n) == "false"


def test_build_removes_structural_duplicates():
    arena = Arena()
    a1 = arena.build(AND, [arena.lit(1), arena.lit(2)])
    a2 = arena.build(AND, [arena.lit(1), arena.lit(2)])
    n = arena.build(OR, [a1, a2, arena.lit(3)])
    assert len(arena.children(n)) == 2


def test_literal_occurrences_are_distinct_nodes():
    arena = Arena()
    n = arena.build(AND, [arena.lit(1), arena.lit(2)])
    m = arena.build(OR, [arena.lit(1), n])
    (x_leaf, _) = arena.children(m)
    assert x_leaf != arena.children(n)[0] or arena.literal(x_leaf) != 1 or True
    # two occurrences of literal 1 occupy different slots
    lits = [s for s in subformulas(arena, m) if arena.kind(s) == LIT and arena.literal(s) == 1]
    assert len(lits) == 2 and lits[0] != lits[1]


def test_normalization_idempotent_on_random_formulas():
    rng = random.Random(7)
    for _ in range(50):
        arena = Arena()
        node = random_nnf(arena, rng, 4, 12)
        rebuilt = copy_into(arena, arena, node)
        assert structural_equal(arena, node, arena, rebuilt)


def test_subformulas_preorder():
    arena = Arena()
    root = build_example(arena)
    order = subformulas(arena, root)
    kinds = [arena.kind(n) for n in order]
    assert kinds == [OR, LIT, AND, LIT, LIT]


def test_negated_example():
    arena = Arena()
    root = build_example(arena)
    neg = arena.negated(root)
    # ~(x | (~x & y)) == ~x & (x | ~y)
    assert arena.kind(neg) == AND
    c1, c2 = arena.children(neg)
    assert arena.kind(c1) == LIT and arena.literal(c1) == -1
    assert arena.kind(c2) == OR
    assert [arena.literal(c) for c in arena.children(c2)] == [1, -2]


def test_negation_is_pointwise_complement():
    rng = random.Random(11)
    for _ in range(40):
        arena = Arena()
        node = random_nnf(arena, rng, 5, 14)
        neg = arena.negated(node)
        for bits in itertools.product([0, 1], repeat=5):
            values = {v: bits[v - 1] for v in range(1, 6)}
            assert evaluate(arena, neg, values) == 1 - evaluate(arena, node, values)


def test_negation_involution_up_to_structure():
    rng = random.Random(13)
    for _ in range(40):
        arena = Arena()
        node = random_nnf(arena, rng, 4, 12)
        twice = arena.negated(arena.negated(node))
        assert structural_equal(arena, node, arena, twice)


def test_evaluate_requires_total_assignment():
    arena = Arena()
    root = build_example(arena)
    assert evaluate(arena, root, {1: 1, 2: 0}) == 1
    assert evaluate(arena, root, {1: 0, 2: 0}) == 0
    assert evaluate(arena, root, {1: 0, 2: 1}) == 1
    with pytest.raises(ValueError):
        evaluate(arena, root, {1: 0})


def make_problem():
    arena = Arena()
    matrix = build_example(arena)
    prefix = [
        Scope(Quantifier.FORALL, (1,)),
        Scope(Quantifier.EXISTS, (2,)),
    ]
    return QbfProblem.make(arena, prefix, matrix, {1: "x", 2: "y"})


def test_problem_validation():
    problem = make_problem()
    assert problem.var_scope == {1: 1, 2: 2}
    assert problem.quantifier_of(2) is Quantifier.EXISTS
    assert problem.all_vars() == [1, 2]
    assert problem.matrix_constant() is None

    arena = Arena()
    matrix = build_example(arena)
    with pytest.raises(ValueError):
        QbfProblem.make(arena, [Scope(Quantifier.FORALL, (1,))], matrix)
    with pytest.raises(ValueError):
        QbfProblem.make(
            arena,
            [Scope(Quantifier.FORALL, (1,)), Scope(Quantifier.EXISTS, (1, 2))],
            matrix,
        )


def test_dependencies():
    arena = Arena()
    matrix = arena.build(
        OR, [arena.lit(1), arena.lit(2), arena.lit(3), arena.lit(4)]
    )
    prefix = [
        Scope(Quantifier.EXISTS, (1,)),
        Scope(Quantifier.FORALL, (2, 3)),
        Scope(Quantifier.EXISTS, (4,)),
    ]
    problem = QbfProblem.make(arena, prefix, matrix)
    assert dependencies(problem, 4) == [2, 3]
    assert dependencies(problem, 1) == []
    assert dependencies(problem, 2) == [1]
    with pytest.raises(ValueError):
        dependencies(problem, 9)


def test_node_vars_and_problem_equality():
    problem = make_problem()
    assert node_vars(problem.arena, problem.matrix) == {1, 2}
    other = make_problem()
    assert problems_equal(problem, other)
    renamed = make_problem()
    renamed.var_names[2] = "z"
    assert not problems_equal(problem, renamed)
