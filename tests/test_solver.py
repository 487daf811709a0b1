"""Tests for both solving algorithms."""

import hashlib
import json
import random
import sys

import pytest

from qbfkit.abstraction import compute_influence
from qbfkit.aiger import Circuit, write_aiger
from qbfkit.bench import GenSpec, gen_expansion_hard, gen_qparity, gen_random
from qbfkit.certify import build_certificate, extract_functions, verify
from qbfkit.formula import (AND, OR, Arena, InternalError, QbfProblem,
                            Quantifier, Scope)
from qbfkit.parsing import parse_qcir, parse_qdimacs
from qbfkit.preprocess import preprocess
from qbfkit.sat import Solver
from qbfkit.solver import (ProofPair, SolveConfig, solve, solve_abstraction,
                           solve_assignment)

from helpers import brute_force, random_nnf, random_problem

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


def test_adjacent_blocks_of_one_quantifier_play_as_one_block():
    arena = Arena()
    problem = QbfProblem.make(
        arena, [Scope(Quantifier.EXISTS, (1,)), Scope(Quantifier.EXISTS, (2,))],
        arena.build(AND, [arena.lit(1), arena.lit(2)]))
    assert problem.prefix == [Scope(Quantifier.EXISTS, (1, 2))]
    value, trace, _ = solve_abstraction(problem)
    assert value is True
    assert solve_assignment(problem)[0] is True
    assert verify(problem, extract_functions(problem, trace, value)).valid


def unmerged_prefix(rng, nvars):
    """Variables 1..nvars in random order, cut into random blocks, some of
    them empty and some with the quantifier of the block before."""
    order = list(range(1, nvars + 1))
    rng.shuffle(order)
    bounds = [0, *sorted(rng.choices(range(nvars + 1), k=nvars)), nvars]
    return [Scope(rng.choice((Quantifier.EXISTS, Quantifier.FORALL)),
                  tuple(order[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]


def test_solvers_agree_with_brute_force_on_unmerged_prefixes():
    rng = random.Random(4242)
    for _ in range(300):
        arena = Arena()
        nvars = rng.randint(2, 6)
        matrix = random_nnf(rng, arena, nvars, rng.randint(4, 14))
        problem = QbfProblem.make(arena, unmerged_prefix(rng, nvars), matrix)
        expected = brute_force(problem)
        assert solve_abstraction(problem)[0] is expected
        assert solve_assignment(problem)[0] is expected


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


def end_to_end_digests(problems):
    """Two SHA-256 digests over what both solvers and the certificate
    builder make of each problem, as given and after preprocessing: one
    over the search (verdicts, per-block queries and refinements), one over
    the certificates' AIGER text."""
    searches, certificates = [], []
    for problem in problems:
        reduced, info = preprocess(problem)
        for solved, eliminated in ((problem, {}), (reduced, info.eliminated)):
            value, trace, stats = solve_abstraction(solved)
            aag = write_aiger(build_certificate(problem, solved, eliminated,
                                                trace, value))
            avalue, astats = solve_assignment(solved)
            searches.append([value, stats.sat_queries, stats.refinements,
                             avalue, astats.sat_queries, astats.refinements])
            certificates.append(hashlib.sha256(aag.encode()).hexdigest())
    return tuple(hashlib.sha256(json.dumps(records).encode()).hexdigest()
                 for records in (searches, certificates))


def golden_families():
    """The problem families the two end-to-end goldens pin."""
    return [(gen_qparity(n) for n in range(2, 7)),
            (gen_expansion_hard(n) for n in range(1, 5)),
            (gen_random(GenSpec(seed=i)) for i in range(300))]


def test_end_to_end_golden():
    # Verdicts and per-block query and refinement counts of both solvers,
    # pinned: a change that renumbers SAT variables or reorders clauses
    # shows up here even when every verdict stays right.
    assert [end_to_end_digests(family)[0]
            for family in golden_families()] == [
        "9e18dc325f322084c63cc2b5c30bd53ffa60774b9fa0d7653766762e0bd83268",
        "66ece71ffd80ee31430d39498f5a42011e3cd8acfac00b0bf6621318ada4d007",
        "eb326386cae989fc45b26a37bdee2185ec278dd46c5e8e82b1a7aecb41d037ac",
    ]


def test_certificate_golden():
    # The certificates of the same runs, pinned apart from the search, so
    # a change to extraction alone moves only this digest.
    assert [end_to_end_digests(family)[1]
            for family in golden_families()] == [
        "62d82387c0db901732124c15ffed18045ee36e17bf6c439c07990dea87e919f8",
        "25d7ca6b1b0f49188b38f82519d4ae63881ad3444321c63a82084f47e36f1a12",
        "c8aa34720d741405efbd49dbb7f663550d1d144afb964c7e2b48a13cfbfffab0",
    ]


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
        "2197f242d9fe2d6149a6a89092373f858046a8f2b4c66f0d913b9eda0d137ce8")
    assert search_digest(randoms, monkeypatch) == (
        "992cf5c9def209e3ac912a0d7790480659194985aa927ec18fcf1693530ac064")


def test_deep_prefix_solves_at_the_default_recursion_limit():
    # 1,100 alternating one-variable blocks. Under or(x1, ..., x1100) the
    # abstraction plays every block, and its first round descends through
    # all of them; under x1099 | x1100 both solvers play only the two
    # blocks that hold a variable of the matrix
    n = 1100
    assert sys.getrecursionlimit() < n
    arena = Arena()
    prefix = [Scope(Quantifier.EXISTS if v % 2 else Quantifier.FORALL, (v,))
              for v in range(1, n + 1)]
    wide = QbfProblem.make(
        arena, prefix, arena.build(OR, [arena.lit(v) for v in range(1, n + 1)]))
    value, _, stats = solve_abstraction(wide)
    assert value is True
    assert all(stats.sat_queries)
    problem = QbfProblem.make(
        arena, prefix, arena.build(OR, [arena.lit(n - 1), arena.lit(n)]))
    for value, stats in (solve_assignment(problem),
                         solve_abstraction(problem)[::2]):
        assert value is True
        assert not any(stats.sat_queries[:-2]) and stats.sat_queries[-1] > 0


def test_assignment_solvers_number_only_the_variables_the_matrix_reads(
        monkeypatch):
    # the prefix of the test above under x1099 | x1100: only the two blocks
    # that hold a variable of the matrix play, and each of their solvers and
    # the challenger's needs those two variables and one gate, not all 1,100
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
    assert (sum(stats.sat_queries), sum(stats.refinements)) == (5, 1)


def test_and_inverter_graphs_get_inputs_only_for_read_variables(monkeypatch):
    # 2,000 alternating one-variable blocks under (x1999 | x2000) &
    # (-x1999 | -x2000): the graphs of compute_influence (which the
    # abstraction solver runs) and of the assignment solver get one input
    # per variable the matrix reads, not one per prefix variable
    n = 2000
    arena = Arena()
    prefix = [Scope(Quantifier.EXISTS if v % 2 else Quantifier.FORALL, (v,))
              for v in range(1, n + 1)]
    matrix = arena.build(AND, [
        arena.build(OR, [arena.lit(n - 1), arena.lit(n)]),
        arena.build(OR, [arena.lit(1 - n), arena.lit(-n)])])
    problem = QbfProblem.make(arena, prefix, matrix)
    calls = 0
    add_input = Circuit.add_input

    def counted(circuit, name):
        nonlocal calls
        calls += 1
        return add_input(circuit, name)

    monkeypatch.setattr(Circuit, "add_input", counted)
    compute_influence(problem)
    assert calls <= 2
    for solve_with in (solve_abstraction, solve_assignment):
        calls = 0
        assert solve_with(problem)[0] is False
        assert calls <= 2


@pytest.mark.parametrize("n", [14, 20])
def test_assignment_solver_folds_tautological_conjuncts(n):
    # alternating one-variable blocks under the unpreprocessed matrix
    # and(v | -v for v < n - 1, x_{n-1} | x_n): the matrix's graph folds
    # each v | -v to true, so only the last two blocks play. Encoded clause
    # by clause, each negated tautology was falsified through its
    # variable's assumption, and the queries doubled with every two blocks
    # (383 at n = 14, 3,071 at n = 20)
    arena = Arena()
    conjuncts = [arena.build(OR, [arena.lit(v), arena.lit(-v)])
                 for v in range(1, n - 1)]
    conjuncts.append(arena.build(OR, [arena.lit(n - 1), arena.lit(n)]))
    prefix = [Scope(Quantifier.EXISTS if v % 2 else Quantifier.FORALL, (v,))
              for v in range(1, n + 1)]
    problem = QbfProblem.make(arena, prefix, arena.build(AND, conjuncts))
    value, stats = solve_assignment(problem)
    assert value is True
    assert stats.total_iterations <= 2 * n


def test_solve_dispatches_by_algorithm_name():
    for seed in range(60):
        problem = gen_random(GenSpec(seed=seed))
        value, stats = solve(problem, "abstraction")
        assert solve(problem, algorithm="assignment")[0] is value
        assert solve(problem)[0] is value
        assert len(stats.sat_queries) == problem.scope_count
    with pytest.raises(ValueError, match="unknown algorithm"):
        solve(gen_random(GenSpec()), "qrs")
