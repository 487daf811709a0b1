"""Tests for the NNF arena, normalization, and problem structure."""

import itertools
import random
import time

import pytest

from qbfkit.formula import (
    AND,
    LIT,
    OR,
    Arena,
    QbfProblem,
    Quantifier,
    Scope,
    dependencies,
    evaluate,
    postorder,
    problems_equal,
)

from qbfkit.parsing import parse_qcir, parse_qdimacs
from qbfkit.preprocess import preprocess

from helpers import random_nnf, random_problem


def build_example(arena: Arena) -> int:
    """x | (~x & y) with x=1, y=2."""
    return arena.build(OR, [arena.lit(1), arena.build(AND, [arena.lit(-1), arena.lit(2)])])


def test_build_flattens_same_connective():
    arena = Arena()
    inner = arena.build(AND, [arena.lit(1), arena.lit(2)])
    outer = arena.build(AND, [inner, arena.lit(3)])
    assert arena.kinds[outer] == AND
    assert [arena.payload[c] for c in arena.payload[outer]] == [1, 2, 3]


def test_build_folds_constants_and_arity():
    arena = Arena()
    t = arena.const(True)
    n = arena.build(AND, [arena.lit(1), t])
    assert arena.kinds[n] == LIT and arena.payload[n] == 1

    f = arena.const(False)
    n = arena.build(AND, [arena.lit(1), f])
    assert arena.kinds[n] == "false"

    n = arena.build(OR, [arena.const(False), arena.const(False)])
    assert arena.kinds[n] == "false"


def test_build_removes_structural_duplicates():
    arena = Arena()
    a1 = arena.build(AND, [arena.lit(1), arena.lit(2)])
    a2 = arena.build(AND, [arena.lit(1), arena.lit(2)])
    n = arena.build(OR, [a1, a2, arena.lit(3)])
    assert len(arena.payload[n]) == 2


def test_literal_occurrences_are_distinct_nodes():
    arena = Arena()
    n = arena.build(AND, [arena.lit(1), arena.lit(2)])
    m = arena.build(OR, [arena.lit(1), n])
    x_under_m = arena.payload[m][0]
    x_under_n = arena.payload[n][0]
    assert arena.payload[x_under_m] == arena.payload[x_under_n] == 1
    assert x_under_m != x_under_n
    # two occurrences of literal 1 occupy different slots
    lits = [s for s in postorder(arena, m)
            if arena.kinds[s] == LIT and arena.payload[s] == 1]
    assert len(lits) == 2 and lits[0] != lits[1]


def finishing_order(arena: Arena, node: int, done) -> list[int]:
    """Reference: the order in which a recursion memoized by `done` (plus the
    nodes it has finished) finishes nodes, children in payload order."""
    memo, out = set(done), []

    def visit(n):
        if n in memo:
            return
        if arena.kinds[n] != LIT:
            for c in arena.payload[n]:
                visit(c)
        memo.add(n)
        out.append(n)

    visit(node)
    return out


def random_dag(rng, arena: Arena) -> int:
    """Random trees from `random_nnf`, joined by gates that reuse them."""
    nvars = rng.randint(1, 4)
    pool = [random_nnf(rng, arena, nvars, rng.randint(1, 10))
            for _ in range(rng.randint(2, 4))]
    for _ in range(rng.randint(1, 6)):
        kids = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
        pool.append(arena.build(rng.choice((AND, OR)), kids))
    return pool[-1]


def test_postorder_is_the_recursive_finishing_order():
    rng = random.Random(707)
    for _ in range(300):
        arena = Arena()
        root = random_dag(rng, arena)
        nodes = postorder(arena, root)
        for k in (0, 1, rng.randint(0, len(nodes))):
            done = dict.fromkeys(rng.sample(nodes, k))
            assert postorder(arena, root, done) == \
                finishing_order(arena, root, done)
        assert postorder(arena, root) == finishing_order(arena, root, ())
    arena = Arena()
    t = arena.const(True)
    assert postorder(arena, t) == [t]
    assert postorder(arena, t, {t: None}) == []


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


def test_matrix_vars_and_problem_equality():
    problem = make_problem()
    assert problem.matrix_vars == {1, 2}
    other = make_problem()
    assert problems_equal(problem, other)
    renamed = make_problem()
    renamed.var_names[2] = "z"
    assert not problems_equal(problem, renamed)


def literal_vars(problem: QbfProblem) -> set[int]:
    """Reference: the variables of the matrix's literal nodes."""
    kinds, payload = problem.arena.kinds, problem.arena.payload
    return {abs(payload[n]) for n in postorder(problem.arena, problem.matrix)
            if kinds[n] == LIT}


def test_matrix_vars_are_the_variables_of_the_matrix_literals():
    rng = random.Random(29)
    eliminated = 0
    for _ in range(200):
        problem = random_problem(rng)
        assert problem.matrix_vars == literal_vars(problem)
        reduced, info = preprocess(problem)
        assert reduced.matrix_vars == literal_vars(reduced)
        assert not reduced.matrix_vars & info.eliminated.keys()
        eliminated += len(info.eliminated)
    assert eliminated > 0
    # prefixes that bind variables the matrix does not read
    qcir = parse_qcir("#QCIR-G14\nexists(a, b, c)\nforall(d, e)\noutput(g)\n"
                      "g = and(a, -d)\n")
    qdimacs = parse_qdimacs("p cnf 5 1\ne 1 2 0\na 3 4 5 0\n1 -3 0\n")
    for problem, read in ((qcir, {"a", "d"}), (qdimacs, {"1", "3"})):
        assert len(problem.all_vars()) == 5
        assert problem.matrix_vars == literal_vars(problem)
        assert {problem.var_names[v] for v in problem.matrix_vars} == read


def same_structure(arena: Arena, a: int, b: int) -> bool:
    """Reference structural compare: kinds, literals and children in order."""
    if arena.kinds[a] != arena.kinds[b]:
        return False
    if arena.kinds[a] == LIT:
        return arena.payload[a] == arena.payload[b]
    ca, cb = arena.payload[a], arena.payload[b]
    return len(ca) == len(cb) and all(same_structure(arena, x, y)
                                      for x, y in zip(ca, cb))


def test_class_ids_match_structural_equality():
    rng = random.Random(606)
    for _ in range(40):
        arena = Arena()
        arena.const(True)
        arena.const(False)
        for _ in range(4):
            random_nnf(rng, arena, rng.randint(1, 3), rng.randint(2, 16))
        arena.const(True)
        for a, b in itertools.combinations_with_replacement(range(len(arena)), 2):
            assert (arena.canon[a] == arena.canon[b]) == \
                same_structure(arena, a, b), (a, b)


def deep_chain(arena: Arena, depth: int) -> int:
    """x1 & (x2 | (x3 & ...)), alternating so `build` flattens nothing."""
    node = arena.lit(depth + 1)
    for i in range(depth, 0, -1):
        node = arena.build(AND if i % 2 else OR, [arena.lit(i), node])
    return node


def test_deep_equal_chains_collapse_to_one_child():
    start = time.perf_counter()
    arena = Arena()
    a = deep_chain(arena, 3000)
    b = deep_chain(arena, 3000)
    assert a != b and arena.kinds[a] == AND
    assert arena.build(OR, [a, b]) == a
    assert time.perf_counter() - start < 1.0


def test_deep_equal_chain_problems_are_equal():
    start = time.perf_counter()
    problems = []
    for _ in range(2):
        arena = Arena()
        matrix = deep_chain(arena, 3000)
        prefix = [Scope(Quantifier.EXISTS, tuple(range(1, 3002)))]
        problems.append(QbfProblem.make(arena, prefix, matrix))
    assert problems_equal(*problems)
    assert time.perf_counter() - start < 1.0
