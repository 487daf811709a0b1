"""Tests for both solving algorithms."""

import hashlib
import json
import random
import sys

import pytest

from qbfkit.aiger import write_aiger
from qbfkit.bench import GenSpec, gen_expansion_hard, gen_qparity, gen_random
from qbfkit.certify import build_certificate
from qbfkit.formula import (OR, Arena, InternalError, QbfProblem, Quantifier,
                            Scope)
from qbfkit.parsing import parse_qcir, parse_qdimacs
from qbfkit.preprocess import preprocess
from qbfkit.sat import Solver
from qbfkit.solver import (ProofPair, SolveConfig, solve, solve_abstraction,
                           solve_assignment)

from helpers import brute_force, random_problem

EXAMPLE_QCIR = """\
#QCIR-G14
forall(x)
exists(y)
output(f)
g = and(-x, y)
f = or(x, g)
"""

PARITY2_QCIR = """\
#QCIR-G14
exists(x1, x2)
forall(z)
output(root)
a1 = and(x1, -x2)
a2 = and(-x1, x2)
p = or(a1, a2)
n1 = and(x1, x2)
n2 = and(-x1, -x2)
np = or(n1, n2)
c1 = or(z, p)
c2 = or(-z, np)
root = and(c1, c2)
"""


def test_example_is_true_with_expected_trace():
    problem = parse_qcir(EXAMPLE_QCIR)
    (psi2,) = [c for c in problem.arena.payload[problem.matrix]
               if problem.arena.kinds[c] != "lit"]
    value, trace, stats = solve_abstraction(problem)
    assert value is True
    assert trace.pairs == [ProofPair(2, frozenset({psi2}), frozenset({2}))]
    assert stats.refinements == [1, 0]
    assert stats.sat_queries == [2, 2]
    assert stats.total_iterations == 4
    assert stats.wall_time > 0


def test_parity_is_false_with_two_refinements():
    problem = parse_qcir(PARITY2_QCIR)
    c1, c2 = problem.arena.payload[problem.matrix]
    value, trace, stats = solve_abstraction(problem)
    assert value is False
    assert stats.refinements == [2, 0]
    assert {(p.scope, p.nodes) for p in trace.pairs} == {
        (2, frozenset({c1})), (2, frozenset({c2}))}


def test_plain_disjunction_confirms_with_empty_reliance():
    problem = parse_qcir(
        "#QCIR-G14\nexists(x)\nforall(y)\noutput(f)\nf = or(x, y)\n")
    value, trace, stats = solve_abstraction(problem)
    assert value is True
    assert trace.pairs[-1] == ProofPair(1, frozenset(), frozenset({1}))


def test_constant_matrices_and_empty_prefix():
    for text, expected in [("#QCIR-G14\noutput(g)\ng = and()\n", True),
                           ("#QCIR-G14\noutput(g)\ng = or()\n", False)]:
        problem = parse_qcir(text)
        value, trace, stats = solve_abstraction(problem)
        assert value is expected
        assert trace.pairs == []
        assert stats.total_iterations == 0
        value, stats = solve_assignment(problem)
        assert value is expected


def test_unused_inner_block_is_never_visited():
    problem = parse_qdimacs("p cnf 2 1\ne 1 0\na 2 0\n1 0\n")
    value, trace, stats = solve_abstraction(problem)
    assert value is True
    assert stats.sat_queries[1] == 0  # the y block never ran a query


def test_variable_used_only_inside():
    problem = parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n2 0\n")
    value, _, _ = solve_abstraction(problem)
    assert value is True
    value, _ = solve_assignment(problem)
    assert value is True


def test_trace_recording_can_be_disabled():
    problem = parse_qcir(EXAMPLE_QCIR)
    value, trace, _ = solve_abstraction(problem, SolveConfig(record_trace=False))
    assert value is True
    assert trace.pairs == []


def test_expansion_example_and_parity():
    value, stats = solve_assignment(parse_qcir(EXAMPLE_QCIR))
    assert value is True
    value, stats = solve_assignment(parse_qcir(PARITY2_QCIR))
    assert value is False
    assert stats.refinements[0] == 4  # one proposal per x-assignment


def test_solvers_agree_with_brute_force():
    rng = random.Random(2024)
    checked = 0
    while checked < 150:
        problem = random_problem(rng)
        expected = brute_force(problem)
        value, trace, _ = solve_abstraction(problem)
        assert value is expected, parse_failure(problem, expected, value)
        value, _ = solve_assignment(problem)
        assert value is expected
        checked += 1


def parse_failure(problem, expected, got):
    from qbfkit.parsing import write_qcir
    return f"expected {expected}, got {got} on:\n{write_qcir(problem)}"


def test_runs_are_deterministic():
    problem = parse_qcir(PARITY2_QCIR)
    first = solve_abstraction(problem)
    second = solve_abstraction(parse_qcir(PARITY2_QCIR))
    assert first[0] == second[0]
    assert first[1].pairs == second[1].pairs
    assert first[2].sat_queries == second[2].sat_queries


def test_trace_for_scope_filters_pairs():
    problem = parse_qcir(PARITY2_QCIR)
    _, trace, _ = solve_abstraction(problem)
    assert 1 not in trace.by_scope()
    assert len(trace.by_scope()[2]) == 2


def end_to_end_digest(problems):
    """SHA-256 over what both solvers and the certificate builder make of
    each problem, as given and after preprocessing."""
    records = []
    for problem in problems:
        reduced, info = preprocess(problem)
        for solved, eliminated in ((problem, {}), (reduced, info.eliminated)):
            value, trace, stats = solve_abstraction(solved)
            aag = write_aiger(build_certificate(problem, solved, eliminated,
                                                trace, value))
            avalue, astats = solve_assignment(solved)
            records.append([value, stats.sat_queries, stats.refinements,
                            avalue, astats.sat_queries, astats.refinements,
                            hashlib.sha256(aag.encode()).hexdigest()])
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def test_end_to_end_golden():
    # Verdicts, per-block query and refinement counts of both solvers, and
    # certificates, pinned: a change that renumbers SAT variables or
    # reorders clauses shows up here even when every verdict stays right.
    assert end_to_end_digest(gen_qparity(n) for n in range(2, 7)) == (
        "21d919a12eb86947e8e350a64b5d8dde9830efdb5aa814320bc2e574c89ab180")
    assert end_to_end_digest(gen_expansion_hard(n) for n in range(1, 5)) == (
        "b632fb50072d20d97c4bc05685f45df8c490056d4591293ecf77bc6e60e5fb7a")
    assert end_to_end_digest(gen_random(GenSpec(seed=i))
                             for i in range(300)) == (
        "1b3a102fc02e348711fb7a444e6912064bd0b76e54aeb420035f43871b6e71e9")


def search_digest(problems, monkeypatch):
    """SHA-256 over every SAT call `solve_abstraction` makes on each problem
    after preprocessing: its outcome, the conflicts it took and the size of
    its core."""
    log = []
    solve = Solver.solve

    def logged(self, assumptions=()):
        before = self.conflicts
        result = solve(self, assumptions)
        log.append((result.sat, self.conflicts - before,
                    len(result.failed or ())))
        return result

    monkeypatch.setattr(Solver, "solve", logged)
    for problem in problems:
        solve_abstraction(preprocess(problem)[0])
    monkeypatch.undo()
    return hashlib.sha256(repr(log).encode()).hexdigest()


def test_search_golden(monkeypatch):
    # Pins the search itself, call by call: a change to the abstractions
    # that only drops clauses or variables no other one depends on must
    # leave every SAT call's outcome, conflicts and core size as they were.
    rng = random.Random(59)
    randoms = [random_problem(rng, max_vars=8, max_budget=30, impure=True)
               for _ in range(100)]
    assert search_digest([*(gen_expansion_hard(n) for n in range(1, 7)),
                          *(gen_qparity(n) for n in range(2, 7))],
                         monkeypatch) == (
        "93867bda471ffd5039fe89fd7c40295dcd0002651c4ad11e5a6d217e45fa331c")
    assert search_digest(randoms, monkeypatch) == (
        "781c088706b482224ff10497f34dcdb5c3a93736174780e5efb154b93b44e5f3")


def test_deep_prefix_solves_at_the_default_recursion_limit():
    # 1,100 alternating one-variable blocks over a matrix that only the two
    # innermost read, so the first round descends through every block
    n = 1100
    assert sys.getrecursionlimit() < n
    arena = Arena()
    prefix = [Scope(Quantifier.EXISTS if v % 2 else Quantifier.FORALL, (v,))
              for v in range(1, n + 1)]
    problem = QbfProblem.make(
        arena, prefix, arena.build(OR, [arena.lit(n - 1), arena.lit(n)]))
    value, stats = solve_assignment(problem)
    assert value is True
    assert stats.sat_queries[-1] > 0
    value, _, stats = solve_abstraction(problem)
    assert value is True
    assert stats.sat_queries[-1] > 0


def test_assignment_solvers_number_only_the_variables_the_matrix_reads(
        monkeypatch):
    # the prefix of the test above: each of the 1,101 solvers needs the two
    # variables the matrix reads and one gate, not all 1,100 variables
    n = 1100
    arena = Arena()
    prefix = [Scope(Quantifier.EXISTS if v % 2 else Quantifier.FORALL, (v,))
              for v in range(1, n + 1)]
    problem = QbfProblem.make(
        arena, prefix, arena.build(OR, [arena.lit(n - 1), arena.lit(n)]))
    calls = 0
    fresh_var = Solver.fresh_var

    def counted(solver):
        nonlocal calls
        calls += 1
        return fresh_var(solver)

    monkeypatch.setattr(Solver, "fresh_var", counted)
    value, stats = solve_assignment(problem)
    assert value is True
    assert calls <= 10_000
    assert (sum(stats.sat_queries), sum(stats.refinements)) == (1652, 550)


def test_solve_dispatches_by_algorithm_name():
    for seed in range(60):
        problem = gen_random(GenSpec(seed=seed))
        value, stats = solve(problem, "abstraction")
        assert solve(problem, algorithm="assignment")[0] is value
        assert solve(problem)[0] is value
        assert len(stats.sat_queries) == problem.scope_count
    with pytest.raises(ValueError, match="unknown algorithm"):
        solve(gen_random(GenSpec()), "qrs")
