"""Tests for strategy extraction and certificate checking."""

import itertools
import random
import time

import pytest

from qbfkit.abstraction import compute_influence
from qbfkit import abstraction, certify
from qbfkit import solver as solver_module
from qbfkit.aiger import (TRUE_LIT, Circuit, TwoLevelCircuit, negate,
                          read_aiger, write_aiger)
from qbfkit.bench import GenSpec, gen_expansion_hard, gen_qparity, gen_random
from qbfkit.certify import (build_certificate, condition_formula,
                            extract_functions, read_trace, verify,
                            write_trace)
from qbfkit.formula import (AND, OR, Arena, InternalError, QbfProblem,
                            Quantifier, Scope, evaluate, postorder,
                            problems_equal)
from qbfkit.parsing import ParseError, parse_qcir, write_qcir
from qbfkit.preprocess import preprocess
from qbfkit.sat import Solver
from qbfkit.solver import (ProofPair, ProofTrace, solve_abstraction,
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

CHAIN_QCIR = """\
#QCIR-G14
exists(a)
forall(x)
exists(y)
output(f)
f = or(a, x, y)
"""


def example_problem():
    problem = parse_qcir(EXAMPLE_QCIR)
    psi1 = problem.matrix
    (psi2,) = [c for c in problem.arena.payload[psi1]
               if problem.arena.kinds[c] != "lit"]
    return problem, psi1, psi2


# ----------------------------------------------------------------------
# grant conditions


def test_condition_of_the_inner_and_node():
    problem, _, psi2 = example_problem()
    circuit = condition_formula(problem, psi2, 2)
    for x in (False, True):
        assert circuit.evaluate({"x": x})["condition"] is not x


def test_condition_of_the_or_root():
    problem, psi1, _ = example_problem()
    circuit = condition_formula(problem, psi1, 2)
    for x in (False, True):
        assert circuit.evaluate({"x": x})["condition"] is x


def test_condition_requires_an_interface_node():
    problem, _, psi2 = example_problem()
    with pytest.raises(InternalError):
        condition_formula(problem, psi2, 1)


def test_universal_block_conditions_flip_polarity():
    problem = parse_qcir(PARITY2_QCIR)
    c1, c2 = problem.arena.payload[problem.matrix]
    for node, wants_parity in ((c1, False), (c2, True)):
        circuit = condition_formula(problem, node, 2)
        for x1 in (False, True):
            for x2 in (False, True):
                expected = (x1 != x2) is wants_parity
                got = circuit.evaluate({"x1": x1, "x2": x2})["condition"]
                assert got is expected


def test_conditions_match_a_reference_on_random_problems():
    # The grant condition of node n at block k keeps the children that only
    # blocks before k read, joins them by n's connective and, at a universal
    # block, takes the whole in the negated polarity.
    rng = random.Random(41)
    checked = 0
    while checked < 150:
        problem = random_problem(rng, max_vars=7, max_budget=30, impure=True)
        if problem.matrix_constant() is not None:
            continue
        checked += 1
        influence = compute_influence(problem)
        kinds, payload = problem.arena.kinds, problem.arena.payload
        for k, scope in enumerate(problem.prefix, start=1):
            negated = scope.quantifier is Quantifier.FORALL
            outer = [v for s in problem.prefix[:k - 1] for v in s.vars]
            for node in influence.interface[k - 1]:
                circuit = condition_formula(problem, node, k)
                kids = [c for c in payload[node]
                        if influence.max_scope[c] < k]
                join = all if (kinds[node] == AND) != negated else any
                for bits in itertools.product((0, 1), repeat=len(outer)):
                    values = dict(zip(outer, bits))
                    expected = join(
                        evaluate(problem.arena, c, values) != negated
                        for c in kids)
                    names = {problem.var_names[v]: bool(b)
                             for v, b in values.items()}
                    got = circuit.evaluate(names)["condition"]
                    assert got is expected, write_qcir(problem)


# ----------------------------------------------------------------------
# extraction


def test_skolem_extraction_golden():
    problem, _, _ = example_problem()
    value, trace, _ = solve_abstraction(problem)
    assert value is True
    circuit = extract_functions(problem, trace, value)
    assert write_aiger(circuit) == "aag 1 1 0 1 0\n2\n3\ni0 x\no0 y\nc\nskolem\n"


def test_herbrand_extraction_golden():
    problem = parse_qcir(PARITY2_QCIR)
    value, trace, _ = solve_abstraction(problem)
    assert value is False
    assert write_aiger(extract_functions(problem, trace, value)) == (
        "aag 5 2 0 1 3\n2\n4\n11\n6 2 5\n8 3 4\n10 7 9\n"
        "i0 x1\ni1 x2\no0 z\nc\nherbrand\n")


def test_herbrand_extraction_computes_parity():
    problem = parse_qcir(PARITY2_QCIR)
    value, trace, _ = solve_abstraction(problem)
    assert value is False
    circuit = extract_functions(problem, trace, value)
    assert circuit.kind == "herbrand"
    assert circuit.inputs == ["x1", "x2"]
    assert [name for name, _ in circuit.outputs] == ["z"]
    for x1 in (False, True):
        for x2 in (False, True):
            out = circuit.evaluate({"x1": x1, "x2": x2})
            assert out["z"] == (x1 != x2)


def test_extraction_survives_an_aiger_round_trip():
    problem = parse_qcir(PARITY2_QCIR)
    value, trace, _ = solve_abstraction(problem)
    circuit = read_aiger(write_aiger(extract_functions(problem, trace, value)))
    assert verify(problem, circuit).valid


# ----------------------------------------------------------------------
# verification


def test_verify_accepts_extracted_certificates():
    for text in (EXAMPLE_QCIR, PARITY2_QCIR):
        problem = parse_qcir(text)
        value, trace, _ = solve_abstraction(problem)
        result = verify(problem, extract_functions(problem, trace, value))
        assert result.status == "valid"
        assert result.valid
        assert result.counterexample is None


def test_verify_rejects_a_wrong_function():
    problem, _, _ = example_problem()
    circuit = Circuit()
    circuit.kind = "skolem"
    x = circuit.add_input("x")
    circuit.add_output("y", x)
    result = verify(problem, circuit)
    assert result.status == "invalid"
    assert not result.valid
    assert result.counterexample == {"x": False}
    assert "falsified" in result.reason


IGNORED_INPUT_QCIR = """\
#QCIR-G14
forall(a, b, c)
exists(y)
output(m)
g1 = or(y, -b)
g2 = or(-y, b)
m = and(g1, g2)
"""


def test_verify_rejects_a_function_of_the_wrong_inputs():
    # y = a & c, but y must equal b, which the certificate never reads: the
    # miter input for b must not take the literal of the certificate's gate
    problem = parse_qcir(IGNORED_INPUT_QCIR)
    circuit = read_aiger("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"
                         "i0 a\ni1 c\no0 y\nc\nskolem\n")
    result = verify(problem, circuit)
    assert result.status == "invalid"
    cex = result.counterexample
    assert (cex["a"] and cex["c"]) != cex["b"]


def test_verify_reports_a_missing_kind():
    problem, _, _ = example_problem()
    circuit = Circuit()
    circuit.add_input("x")
    circuit.add_output("y", TRUE_LIT)
    result = verify(problem, circuit)
    assert result.status == "ill-formed"
    assert "kind" in result.reason


def test_verify_checks_the_output_set():
    problem, _, _ = example_problem()

    empty = Circuit()
    empty.kind = "skolem"
    empty.add_input("x")
    assert verify(problem, empty).status == "ill-formed"

    doubled = Circuit()
    doubled.kind = "skolem"
    doubled.add_input("x")
    doubled.add_output("y", TRUE_LIT)
    doubled.add_output("y", TRUE_LIT)
    assert verify(problem, doubled).reason == "duplicate output"

    extra = Circuit()
    extra.kind = "skolem"
    extra.add_input("x")
    extra.add_output("y", TRUE_LIT)
    extra.add_output("x", TRUE_LIT)
    assert verify(problem, extra).status == "ill-formed"


def test_verify_rejects_inputs_of_the_functions_own_kind():
    problem, _, _ = example_problem()
    circuit = Circuit()
    circuit.kind = "skolem"
    circuit.add_input("y")
    circuit.add_output("y", TRUE_LIT)
    result = verify(problem, circuit)
    assert result.status == "ill-formed"
    assert "y" in result.reason


def test_verify_enforces_the_prefix_order():
    problem = parse_qcir(CHAIN_QCIR)
    circuit = Circuit()
    circuit.kind = "skolem"
    x = circuit.add_input("x")
    circuit.add_output("a", x)
    circuit.add_output("y", TRUE_LIT)
    result = verify(problem, circuit)
    assert result.status == "ill-formed"
    assert "depends on" in result.reason
    # the same shape is fine when the function may react to x
    proper = Circuit()
    proper.kind = "skolem"
    x = proper.add_input("x")
    proper.add_output("a", TRUE_LIT)
    proper.add_output("y", x)
    assert verify(problem, proper).valid


XNOR_QCIR = """\
#QCIR-G14
forall(x, z)
exists(y)
output(f)
both = and(x, y)
neither = and(-x, -y)
same = or(both, neither)
f = and(same, z)
"""


@pytest.fixture
def solve_calls(monkeypatch):
    """Conflicts made by each `Solver.solve` call, in call order."""
    calls = []
    solve = Solver.solve

    def counted(solver, assumptions=()):
        before = solver.conflicts
        result = solve(solver, assumptions)
        calls.append(solver.conflicts - before)
        return result

    monkeypatch.setattr(Solver, "solve", counted)
    return calls


def skolem_circuit(inputs, output_of):
    """A Skolem certificate with the given inputs whose outputs are built
    from the input literals by `output_of`."""
    circuit = Circuit()
    circuit.kind = "skolem"
    lits = {name: circuit.add_input(name) for name in inputs}
    for name, lit in output_of(lits).items():
        circuit.add_output(name, lit)
    return circuit


def test_verify_decides_a_goal_folded_to_false_without_sat(solve_calls):
    problem = parse_qcir(XNOR_QCIR.replace(
        "f = and(same, z)", "f = or(same, z)"))
    circuit = skolem_circuit(["x", "z"], lambda lit: {"y": lit["x"]})
    assert verify(problem, circuit).status == "valid"
    assert solve_calls == []


def test_verify_decides_a_goal_folded_to_true_without_sat(solve_calls):
    # y := -x makes `same` false whatever x and z are, so every assignment
    # falsifies the matrix; the counterexample names each universal.
    problem = parse_qcir(XNOR_QCIR)
    circuit = skolem_circuit(["x"], lambda lit: {"y": negate(lit["x"])})
    result = verify(problem, circuit)
    assert result.status == "invalid"
    assert result.counterexample == {"x": False, "z": False}
    assert solve_calls == []


def test_verify_makes_one_cheap_sat_call_on_chained_parity(solve_calls):
    # The Herbrand function copies the parity chain out of the matrix; the
    # miter's structural hashing makes the copy and the original one gate.
    problem = gen_qparity(64, chain=True)
    reduced, info = preprocess(problem)
    value, trace, _ = solve_abstraction(reduced)
    circuit = build_certificate(problem, reduced, info.eliminated, trace,
                                value)
    solve_calls.clear()
    assert verify(problem, circuit).status == "valid"
    assert len(solve_calls) == 1
    assert solve_calls[0] <= 300


def expansion_hard_certificate(n):
    problem = gen_expansion_hard(n)
    reduced, info = preprocess(problem)
    value, trace, _ = solve_abstraction(reduced)
    return problem, build_certificate(problem, reduced, info.eliminated,
                                      trace, value)


def test_verify_is_linear_on_expansion_hard(monkeypatch):
    # The two-level rules fold each (e_i & u_i) | c_2i of the substituted
    # matrix to c_2i, so every c is implied at level 0 and the one SAT call
    # ends in propagation. The counts are exact, not timings.
    solvers = []
    solve = Solver.solve

    def recorded(solver, assumptions=()):
        solvers.append(solver)
        return solve(solver, assumptions)

    for n in (64, 128, 256):
        problem, circuit = expansion_hard_certificate(n)
        solvers.clear()
        monkeypatch.setattr(Solver, "solve", recorded)
        assert verify(problem, circuit).status == "valid"
        monkeypatch.undo()
        assert len(solvers) == 1
        assert solvers[0].conflicts == 0
        assert solvers[0].propagations <= 8 * n


# ----------------------------------------------------------------------
# trace files


def test_trace_round_trip():
    problem, _, _ = example_problem()
    trace = ProofTrace()
    trace.record(ProofPair(2, frozenset({5, 3}), frozenset({1})))
    trace.record(ProofPair(1, frozenset(), frozenset({2, 4})))
    trace.record(ProofPair(3, frozenset({7}), frozenset()))
    text = write_trace(problem, trace)
    for node, gate in problem.node_gate.items():
        assert f"g {node} {gate}" in text
    assert read_trace(text).pairs == trace.pairs


def test_trace_reader_skips_annotations():
    assert read_trace("").pairs == []
    assert read_trace("g 3 7\n\n# note\n").pairs == []


@pytest.mark.parametrize("line", [
    "p 2 1",
    "p t x",
    "p 2 x 1 t",
    "p 2 t one x",
    "p 2 t 1 x two",
    "q 1 t x",
])
def test_trace_reader_rejects_malformed_lines(line):
    with pytest.raises(ParseError):
        read_trace(line + "\n")


# ----------------------------------------------------------------------
# end to end


def test_random_certificates_verify():
    rng = random.Random(20260815)
    seen_true = seen_false = 0
    for _ in range(120):
        problem = random_problem(rng)
        value, trace, _ = solve_abstraction(problem)
        assert value == brute_force(problem), write_qcir(problem)
        circuit = extract_functions(problem, trace, value)
        result = verify(problem, circuit)
        assert result.status == "valid", (value, result, write_qcir(problem))
        seen_true += value
        seen_false += not value
    assert seen_true and seen_false


def test_certificates_extend_across_preprocessing():
    rng = random.Random(7)
    reduced_somewhere = 0
    for _ in range(80):
        original = random_problem(rng)
        reduced, info = preprocess(original)
        value, trace, _ = solve_abstraction(reduced)
        assert value == brute_force(original), write_qcir(original)
        circuit = build_certificate(original, reduced, info.eliminated,
                                    trace, value)
        result = verify(original, circuit)
        assert result.status == "valid", (value, result, write_qcir(original))
        reduced_somewhere += bool(info.eliminated)
    assert reduced_somewhere


def opposite_vars(problem, circuit):
    """The variables a certificate's functions react to, in prefix order."""
    func_q = (Quantifier.EXISTS if circuit.kind == "skolem"
              else Quantifier.FORALL)
    return [v for v in problem.all_vars()
            if problem.quantifier_of(v) is not func_q]


def brute_force_check(problem, circuit):
    """`verify`'s status of a well-formed certificate, found by trying
    every assignment of the opposite-kind variables."""
    opposite = opposite_vars(problem, circuit)
    for bits in itertools.product((False, True), repeat=len(opposite)):
        if substituted_matrix(problem, circuit, dict(zip(opposite, bits))) \
                != (circuit.kind == "skolem"):
            return "invalid"
    return "valid"


def substituted_matrix(problem, circuit, values):
    """The matrix's value once the certificate's functions, evaluated under
    `values` (opposite-kind variable -> bool), are substituted."""
    names = problem.var_names
    var_of_name = {name: v for v, name in names.items()}
    outputs = circuit.evaluate({name: values[var_of_name[name]]
                                for name in circuit.inputs})
    full = dict(values)
    full.update((var_of_name[name], bit) for name, bit in outputs.items())
    return bool(evaluate(problem.arena, problem.matrix, full))


def negate_gate_operand(aag, gate, operand):
    """AIGER text with operand 0 or 1 of the given gate negated."""
    lines = aag.split("\n")
    _, _, nin, _, nout, _ = lines[0].split()
    at = 1 + int(nin) + int(nout) + gate
    parts = [int(tok) for tok in lines[at].split()]
    parts[1 + operand] ^= 1
    lines[at] = " ".join(map(str, parts))
    return "\n".join(lines)


def test_verify_agrees_with_brute_force_on_certificates_and_mutants():
    # Each certificate after an AIGER round trip, a mutant with one output
    # negated, and one mutant per gate with one of its operands negated;
    # every invalid one must come with a counterexample under which the
    # strategy really loses. Few random certificates have gates, so small
    # structured ones join them.
    statuses = {"valid": 0, "invalid": 0}
    problems = [*(gen_random(GenSpec(seed=seed, max_vars=10, max_nodes=60))
                  for seed in range(300)),
                *(gen_qparity(n) for n in range(2, 9)),
                *(gen_expansion_hard(n) for n in range(1, 4))]
    gate_mutants = 0
    for seed, problem in enumerate(problems):
        reduced, info = preprocess(problem)
        value, trace, _ = solve_abstraction(reduced)
        aag = write_aiger(build_certificate(problem, reduced, info.eliminated,
                                            trace, value))
        circuits = [read_aiger(aag)]
        if circuits[0].outputs:
            mutant = read_aiger(aag)
            i = seed % len(mutant.outputs)
            name, lit = mutant.outputs[i]
            mutant.outputs[i] = (name, negate(lit))
            circuits.append(mutant)
        for gate in range(len(circuits[0].gates)):
            circuits.append(read_aiger(negate_gate_operand(
                aag, gate, (seed + gate) % 2)))
            gate_mutants += 1
        for circuit in circuits:
            result = verify(problem, circuit)
            expected = brute_force_check(problem, circuit)
            assert result.status == expected, (seed, write_qcir(problem))
            statuses[expected] += 1
            if expected == "valid":
                continue
            assert set(result.counterexample) >= set(circuit.inputs)
            var_of_name = {name: v
                           for v, name in problem.var_names.items()}
            values = dict.fromkeys(opposite_vars(problem, circuit), False)
            values.update((var_of_name[name], bit)
                          for name, bit in result.counterexample.items())
            assert substituted_matrix(problem, circuit, values) is (
                circuit.kind == "herbrand"), (seed, result)
    assert statuses["valid"] > 250 and statuses["invalid"] > 40, statuses
    assert gate_mutants > 60, gate_mutants


# ----------------------------------------------------------------------
# deep matrices


def deep_xor_problem(depth: int):
    """exists x1..x8 forall y . (y | D) & (-y | D'), with D an alternating
    and/or chain `depth` deep over x1..x8 in both polarities and D' its NNF
    negation. The problem is false; the Herbrand function for y is D."""
    arena = Arena()
    d, d_neg = arena.lit(1), arena.lit(-1)
    for i in range(1, depth + 1):
        v = i % 8 + 1
        lit = v if (i // 8) % 2 == 0 else -v
        op, dual = (AND, OR) if i % 2 else (OR, AND)
        d = arena.build(op, [d, arena.lit(lit)])
        d_neg = arena.build(dual, [d_neg, arena.lit(-lit)])
    y = 9
    matrix = arena.build(AND, [arena.build(OR, [arena.lit(y), d]),
                               arena.build(OR, [arena.lit(-y), d_neg])])
    prefix = [Scope(Quantifier.EXISTS, tuple(range(1, 9))),
              Scope(Quantifier.FORALL, (y,))]
    return QbfProblem.make(arena, prefix, matrix), d


def test_deep_matrix_certifies_at_the_default_recursion_limit():
    start = time.perf_counter()
    problem, d = deep_xor_problem(3000)
    reduced, info = preprocess(problem)
    value, trace, _ = solve_abstraction(reduced)
    assert value is False
    circuit = read_aiger(write_aiger(build_certificate(
        problem, reduced, info.eliminated, trace, value)))
    assert verify(problem, circuit).status == "valid"
    assert solve_assignment(problem)[0] is False
    assert problems_equal(problem, problem)
    rng = random.Random(3000)
    for _ in range(8):
        xs = {v: rng.random() < 0.5 for v in range(1, 9)}
        herbrand = circuit.evaluate({f"{v}": xs[v] for v in xs})["9"]
        assert herbrand == bool(evaluate(problem.arena, d, xs))
    assert time.perf_counter() - start < 2.0


def test_deep_certificate_verifies_at_the_default_recursion_limit():
    # the Herbrand function y := D of deep_xor_problem, as a gate chain
    # 5,000 deep, rebuilt gate by gate in the miter
    depth = 5000
    problem, _ = deep_xor_problem(depth)
    circuit = Circuit()
    circuit.kind = "herbrand"
    x = {v: circuit.add_input(f"{v}") for v in range(1, 9)}
    d = x[1]
    for i in range(1, depth + 1):
        v = i % 8 + 1
        lit = x[v] if (i // 8) % 2 == 0 else negate(x[v])
        d = circuit.and_(d, lit) if i % 2 else circuit.or_(d, lit)
    circuit.add_output("9", d)
    aag = write_aiger(circuit)
    assert len(circuit.gates) == depth
    assert verify(problem, read_aiger(aag)).status == "valid"
    circuit.outputs = [("9", negate(d))]
    assert verify(problem, read_aiger(write_aiger(circuit))).status == "invalid"


def test_deep_matrix_writes_as_qcir():
    problem, _ = deep_xor_problem(3000)
    text = write_qcir(problem)
    # the matrix is a tree, so one gate line per and/or node
    arena = problem.arena
    gates = [n for n in postorder(arena, problem.matrix)
             if arena.kinds[n] in (AND, OR)]
    gate_lines = [line for line in text.splitlines() if " = " in line]
    assert len(gate_lines) == len(gates) > 6000
    assert text.splitlines()[3] == "output(_g1)"
    assert gate_lines[-1].startswith("_g1 = and(")


def count_and_calls(monkeypatch, cls):
    """The operands of each `cls.and_` call, in call order."""
    calls = []
    and_ = cls.and_

    def counted(circuit, a, b):
        calls.append((a, b))
        return and_(circuit, a, b)

    monkeypatch.setattr(cls, "and_", counted)
    return calls


@pytest.fixture
def and_calls(monkeypatch):
    """The operands of each certificate gate call, in call order."""
    return count_and_calls(monkeypatch, Circuit)


def test_verify_encodes_the_matrix_once_per_class(monkeypatch):
    # the tree text of qparity(32) parses to 4,097 nodes but only 253
    # structural classes; the miter replays the certificate and encodes
    # each class of the matrix once
    problem = parse_qcir(write_qcir(gen_qparity(32)))
    reduced, info = preprocess(problem)
    value, trace, _ = solve_abstraction(reduced)
    circuit = build_certificate(problem, reduced, info.eliminated, trace,
                                value)
    miter_calls = count_and_calls(monkeypatch, TwoLevelCircuit)
    assert verify(problem, circuit).valid
    assert len(miter_calls) <= 1000


def test_extraction_is_linear_in_blocks(and_calls):
    # Each node's grant condition extends from block to block, so the whole
    # extraction makes a bounded number of gate calls per block, however
    # many children the root has. The count is exact, not a timing.
    for n in (128, 256):
        problem = gen_expansion_hard(n)
        reduced, info = preprocess(problem)
        value, trace, _ = solve_abstraction(reduced)
        and_calls.clear()
        build_certificate(problem, reduced, info.eliminated, trace, value)
        assert len(and_calls) <= 5 * len(reduced.prefix)


def dead_gates(circuit):
    """The gates outside every output's cone."""
    live = set()
    for _, lit in circuit.outputs:
        live.update(circuit.cone(lit))
    return [lhs for lhs, _, _ in circuit.gates if lhs // 2 not in live]


def test_certificates_have_no_dead_gates():
    # A block's pairs after its last true move restate the all-false
    # default, so they, and the `earlier` join after the last emitted
    # pair, leave no gate behind.
    problems = [*(gen_expansion_hard(n) for n in range(1, 9)),
                *(gen_qparity(n) for n in range(2, 7)),
                *(gen_random(GenSpec(seed=i)) for i in range(300))]
    for problem in problems:
        reduced, info = preprocess(problem)
        for solved, eliminated in ((problem, {}), (reduced, info.eliminated)):
            value, trace, _ = solve_abstraction(solved)
            circuit = build_certificate(problem, solved, eliminated, trace,
                                        value)
            assert dead_gates(circuit) == [], write_qcir(problem)
    problem = gen_expansion_hard(128)
    reduced, info = preprocess(problem)
    value, trace, _ = solve_abstraction(reduced)
    circuit = build_certificate(problem, reduced, info.eliminated, trace,
                                value)
    assert len(circuit.gates) == 380
    assert dead_gates(circuit) == []


def test_certify_reuses_the_solves_influence_map(monkeypatch):
    calls = []

    def counted(problem):
        calls.append(problem)
        return compute_influence(problem)

    for module in (abstraction, solver_module, certify):
        monkeypatch.setattr(module, "compute_influence", counted)
    problem = gen_expansion_hard(8)
    reduced, info = preprocess(problem)
    value, trace, _ = solve_abstraction(reduced)
    circuit = build_certificate(problem, reduced, info.eliminated, trace,
                                value)
    assert len(calls) == 1
    assert verify(problem, circuit).valid
    # a trace read back from text carries no map, so certify computes one
    text = write_trace(reduced, trace)
    again = build_certificate(problem, reduced, info.eliminated,
                              read_trace(text), value)
    assert len(calls) == 2
    assert write_aiger(again) == write_aiger(circuit)


def test_extraction_rejects_a_trace_naming_an_unknown_node():
    problem = parse_qcir(PARITY2_QCIR)
    value, _, _ = solve_abstraction(problem)
    with pytest.raises(InternalError, match="incoming interface"):
        extract_functions(problem, read_trace("p 2 t 999 x\n"), value)


@pytest.mark.parametrize("matrix", [True, False])
@pytest.mark.parametrize("claimed", [True, False])
def test_verify_on_a_constant_matrix(matrix, claimed):
    arena = Arena()
    problem = QbfProblem.make(arena, [Scope(Quantifier.FORALL, (1,)),
                                      Scope(Quantifier.EXISTS, (2,))],
                              arena.const(matrix), {1: "x", 2: "y"})
    # with no proof pairs every strategy output is constant False
    circuit = extract_functions(problem, ProofTrace(), claimed)
    assert circuit.kind == ("skolem" if claimed else "herbrand")
    result = verify(problem, circuit)
    if claimed is matrix:
        assert result.status == "valid"
    else:
        assert result.status == "invalid"
        assert result.counterexample == ({"y": False} if matrix
                                         else {"x": False})
