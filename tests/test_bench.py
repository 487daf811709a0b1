"""Tests for the benchmark families and the experiment driver."""

import csv
import io
import random
import sys

import pytest

from qbfkit.bench import (CSV_HEADER, GenSpec, gen_expansion_hard,
                          gen_qparity, gen_random, run_experiment)
from qbfkit.certify import extract_functions, verify
from qbfkit.formula import evaluate, problems_equal, subformulas
from qbfkit.parsing import parse_qcir
from qbfkit.solver import solve_abstraction, solve_assignment

from helpers import brute_force

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


def test_qparity_matches_the_handwritten_two_bit_instance():
    assert problems_equal(gen_qparity(2), parse_qcir(PARITY2_QCIR))


def test_qparity_is_false_with_a_parity_countermove():
    for n in range(1, 6):
        problem = gen_qparity(n)
        value, trace, stats = solve_abstraction(problem)
        assert value is False
        assert stats.refinements[0] == 2  # constant, independent of n
        circuit = extract_functions(problem, trace, value)
        assert verify(problem, circuit).valid
    circuit = extract_functions(*_solved(gen_qparity(3)))
    for bits in range(8):
        values = {f"x{i}": bool(bits >> (i - 1) & 1) for i in range(1, 4)}
        parity = values["x1"] ^ values["x2"] ^ values["x3"]
        assert circuit.evaluate(values)["z"] == parity


def _solved(problem):
    value, trace, _ = solve_abstraction(problem)
    return problem, trace, value


def test_qparity_defeats_assignment_enumeration():
    for n in range(2, 5):
        value, stats = solve_assignment(gen_qparity(n))
        assert value is False
        assert stats.refinements[0] == 2 ** n  # one per parity function entry


def test_qparity_chain_variant():
    balanced, chained = gen_qparity(4), gen_qparity(4, chain=True)
    assert not problems_equal(balanced, chained)
    assert brute_force(chained) is False
    value, trace, _ = solve_abstraction(chained)
    assert value is False
    assert verify(chained, extract_functions(chained, trace, value)).valid


def test_expansion_hard_shape_and_value():
    for n in (1, 2, 3):
        problem = gen_expansion_hard(n)
        assert problem.scope_count == 2 * n + 1
        value, trace, _ = solve_abstraction(problem)
        assert value is False
        assert solve_assignment(problem)[0] is False
        assert verify(problem, extract_functions(problem, trace, value)).valid
    assert brute_force(gen_expansion_hard(2)) is False


def test_expansion_hard_separates_the_algorithms():
    abstraction = []
    assignment = []
    for n in range(1, 6):
        problem = gen_expansion_hard(n)
        _, _, stats = solve_abstraction(problem)
        abstraction.append(sum(stats.refinements))
        _, stats = solve_assignment(problem)
        assignment.append(sum(stats.refinements))
    for n, total in enumerate(abstraction, start=1):
        assert total <= 4 * n + 2  # grows linearly
    for earlier, later in zip(assignment, assignment[1:]):
        assert later >= 2 * earlier  # roughly doubles per block


def test_gen_random_is_reproducible_and_bounded():
    for seed in range(25):
        spec = GenSpec(max_vars=9, max_blocks=3, max_nodes=40, seed=seed)
        problem = gen_random(spec)
        assert problems_equal(problem, gen_random(spec))
        assert problem.matrix_constant() is None
        assert len(problem.all_vars()) <= 9
        assert problem.scope_count <= 3
        assert len(subformulas(problem.arena, problem.matrix)) <= 40


def test_gen_random_agrees_with_brute_force():
    for seed in range(15):
        problem = gen_random(GenSpec(max_vars=6, max_nodes=20, seed=seed))
        expected = brute_force(problem)
        assert solve_abstraction(problem)[0] is expected
        assert solve_assignment(problem)[0] is expected


def test_run_experiment_reports_csv():
    instances = [("qparity", 2, gen_qparity(2)),
                 ("expansion-hard", 1, gen_expansion_hard(1))]
    text = run_experiment(instances)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_HEADER.split(",")
    assert len(rows) == 1 + len(instances) * 2
    by_problem = {}
    for family, n, algorithm, truth, refinements, iterations, wall in rows[1:]:
        assert truth == "FALSE"
        assert algorithm in ("abstraction", "assignment")
        scopes = 2 if family == "qparity" else 3
        assert len(refinements.split(";")) == scopes
        assert int(iterations) > 0
        assert float(wall) >= 0.0
        by_problem.setdefault((family, n), []).append(algorithm)
    assert all(sorted(algos) == ["abstraction", "assignment"]
               for algos in by_problem.values())


def test_run_experiment_rejects_unknown_algorithms():
    with pytest.raises(ValueError):
        run_experiment([("qparity", 2, gen_qparity(2))], algorithms=("qrs",))


def test_generators_reject_nonpositive_sizes():
    with pytest.raises(ValueError):
        gen_qparity(0)
    with pytest.raises(ValueError):
        gen_expansion_hard(0)


def test_chained_qparity_builds_past_the_recursion_limit():
    n = 3000
    assert sys.getrecursionlimit() < n
    problem = gen_qparity(n, chain=True)
    z = n + 1
    rng = random.Random(3000)
    for _ in range(20):
        values = {v: rng.randint(0, 1) for v in range(1, z + 1)}
        parity = sum(values[v] for v in range(1, z)) % 2
        # the universal player wins exactly by playing z = parity(X)
        assert evaluate(problem.arena, problem.matrix, values) == \
            int(values[z] != parity)
