"""Tests for the and-inverter graph circuits."""

import itertools
import random

import pytest

from qbfkit.aiger import (FALSE_LIT, TRUE_LIT, Circuit, TwoLevelCircuit,
                          encode_formula, negate, read_aiger, write_aiger)
from qbfkit.formula import AND, OR, Arena, evaluate, postorder
from qbfkit.parsing import ParseError
from qbfkit.sat import Solver


def test_and_simplifications():
    c = Circuit()
    a = c.add_input("a")
    b = c.add_input("b")
    assert c.and_(a, FALSE_LIT) == FALSE_LIT
    assert c.and_(TRUE_LIT, b) == b
    assert c.and_(a, a) == a
    assert c.and_(a, negate(a)) == FALSE_LIT
    assert c.max_var == 2  # nothing above was materialized


def test_structural_hashing_reuses_gates():
    c = Circuit()
    a = c.add_input("a")
    b = c.add_input("b")
    g1 = c.and_(a, b)
    g2 = c.and_(b, a)
    assert g1 == g2
    assert len(c.gates) == 1


def rule_operands():
    """A two-level circuit over x1, x2 and y with the gates g = x1 & x2 and
    h = -x1 & y, and every such literal by name, plain and negated."""
    c = TwoLevelCircuit()
    x1, x2, y = (c.add_input(name) for name in ("x1", "x2", "y"))
    named = {"x1": x1, "x2": x2, "y": y, "g": c.and_(x1, x2),
             "h": c.and_(negate(x1), y)}
    named.update({f"-{name}": negate(lit) for name, lit in named.items()})
    return c, named


@pytest.mark.parametrize("rule, left, right, expected", [
    ("contradiction", "g", "-x1", "false"),
    ("contradiction", "-x2", "g", "false"),
    ("contradiction across two gates", "g", "h", "false"),
    ("contradiction across two gates", "h", "g", "false"),
    ("idempotence", "g", "x1", "g"),
    ("idempotence", "x2", "g", "g"),
    ("subsumption", "-g", "-x1", "-x1"),
    ("subsumption", "-x2", "-g", "-x2"),
    ("substitution", "-g", "x1", "x1 & -x2"),
    ("substitution", "x2", "-g", "x2 & -x1"),
    ("none", "g", "y", "g & y"),
])
def test_two_level_rules(rule, left, right, expected):
    c, named = rule_operands()
    before = len(c.gates)
    got = c.and_(named[left], named[right])
    if "&" in expected:  # the one gate the rule asks for
        a, b = (named[name] for name in expected.split(" & "))
        assert c.gates == c.gates[:before] + [(got, min(a, b), max(a, b))]
    else:
        assert got == named.get(expected, FALSE_LIT)
        assert len(c.gates) == before


def test_substitution_loops_without_recursion():
    # lit_k = -(x & -lit_(k-1)) with lit_0 = -(x & z), built without the
    # two-level rules: lit_k & x substitutes its way down to x & -z, one
    # level at a time, through a chain deeper than the recursion limit.
    c = TwoLevelCircuit()
    x, z = c.add_input("x"), c.add_input("z")
    lit = negate(Circuit.and_(c, x, z))
    for _ in range(5000):
        lit = negate(Circuit.and_(c, x, negate(lit)))
    got = c.and_(lit, x)
    assert c.gates[-1] == (got, x, negate(z))


FULL_TABLE = (1 << 16) - 1
# 16-row truth tables of 4 inputs, as bit masks indexed by variable
INPUT_TABLES = [sum(1 << row for row in range(16) if row >> i & 1)
                for i in range(4)]


def lit_table(tables, lit):
    table = tables[lit // 2]
    return table ^ FULL_TABLE if lit & 1 else table


def test_two_level_rules_keep_every_truth_table():
    rng = random.Random(2006)
    for _ in range(3000):
        c = TwoLevelCircuit()
        lits = [TRUE_LIT] + [c.add_input(f"v{i}") for i in range(4)]
        tables = [0, *INPUT_TABLES]
        for _ in range(12):
            a, b = (negate(lit) if rng.random() < 0.5 else lit
                    for lit in (rng.choice(lits), rng.choice(lits)))
            got = c.and_(a, b)
            for _, x, y in c.gates[len(tables) - 5:]:
                tables.append(lit_table(tables, x) & lit_table(tables, y))
            assert lit_table(tables, got) == (
                lit_table(tables, a) & lit_table(tables, b))
            lits.append(got)


def test_xor_rule_keeps_every_truth_table():
    # Plain and_/or_ calls mixed with both spellings of an XOR over inputs,
    # gates and constants in either polarity: -(p & q) & -(-p & -q), which
    # is p ^ q, and with q negated its complement. Every result's table is
    # the AND of its operands'. Where both inner gates are built, a spelling
    # whose complement another pair of gates spelled before returns the
    # negation of that literal.
    rng = random.Random(2002)
    flipped = 0
    for _ in range(1500):
        c = Circuit()
        lits = [TRUE_LIT] + [c.add_input(f"v{i}") for i in range(4)]
        tables = [0, *INPUT_TABLES]

        def and_(a, b):
            got = c.and_(a, b)
            for _, x, y in c.gates[len(tables) - 5:]:
                tables.append(lit_table(tables, x) & lit_table(tables, y))
            assert lit_table(tables, got) == (
                lit_table(tables, a) & lit_table(tables, b))
            return got

        spelled = {}  # XOR literal -> the inner gates that first spelled it
        for _ in range(12):
            p, q = (negate(lit) if rng.random() < 0.5 else lit
                    for lit in (rng.choice(lits), rng.choice(lits)))
            if rng.random() < 0.2:
                got = and_(p, q)
            elif rng.random() < 0.25:  # or_
                got = negate(and_(negate(p), negate(q)))
            else:
                inner = [and_(p, q), and_(negate(p), negate(q))]
                rng.shuffle(inner)
                got = and_(*(negate(g) for g in inner))
                key = frozenset(inner)
                if min(inner) > 9 and not (inner[0] | inner[1]) & 1:
                    if spelled.get(negate(got), key) != key:
                        flipped += 1
                    spelled.setdefault(got, key)
            lits.append(negate(got) if rng.random() < 0.5 else got)
    assert flipped > 100, flipped


def test_sweep_drops_exactly_the_dead_gates():
    rng = random.Random(16)
    kept = swept_some = 0
    for _ in range(400):
        c = Circuit()
        c.kind = "skolem"
        lits = [TRUE_LIT] + [c.add_input(f"v{i}") for i in range(4)]
        for _ in range(rng.randint(0, 10)):
            a, b = (negate(lit) if rng.random() < 0.5 else lit
                    for lit in (rng.choice(lits), rng.choice(lits)))
            lits.append(c.and_(a, b))
        for i in range(rng.randint(0, 3)):
            c.add_output(f"o{i}", rng.choice(lits) ^ rng.randint(0, 1))
        live = set()
        for _, lit in c.outputs:
            live.update(c.cone(lit))
        swept = c.sweep()
        assert (swept.inputs, swept.kind) == (c.inputs, c.kind)
        assert [name for name, _ in swept.outputs] == [
            name for name, _ in c.outputs]
        assert len(swept.gates) == len(live) - len(live & {1, 2, 3, 4})
        swept_live = set()
        for _, lit in swept.outputs:
            swept_live.update(swept.cone(lit))
        assert all(lhs // 2 in swept_live for lhs, _, _ in swept.gates)
        for bits in itertools.product((False, True), repeat=4):
            values = dict(zip(c.inputs, bits))
            assert swept.evaluate(values) == c.evaluate(values)
        assert swept.sweep() is swept
        if len(swept.gates) == len(c.gates):
            assert swept is c
            kept += 1
        else:
            swept_some += 1
    assert kept > 60 and swept_some > 200, (kept, swept_some)


def test_or_and_many_semantics():
    c = Circuit()
    a = c.add_input("a")
    b = c.add_input("b")
    d = c.add_input("d")
    c.add_output("f", c.or_many([a, c.and_(b, negate(d))]))
    for bits in itertools.product([False, True], repeat=3):
        values = dict(zip(["a", "b", "d"], bits))
        expected = values["a"] or (values["b"] and not values["d"])
        assert c.evaluate(values) == {"f": expected}


def test_constant_outputs():
    c = Circuit()
    c.add_input("a")
    c.add_output("t", TRUE_LIT)
    c.add_output("f", FALSE_LIT)
    assert c.evaluate({"a": True}) == {"t": True, "f": False}


def test_cone_inputs():
    c = Circuit()
    a = c.add_input("a")
    b = c.add_input("b")
    c.add_input("unused")
    g = c.and_(a, negate(b))
    assert c.cone_inputs(g) == {"a", "b"}
    assert c.cone_inputs(a) == {"a"}
    assert c.cone_inputs(TRUE_LIT) == set()


def test_to_cnf_numbers_the_cone_in_ascending_order():
    # inputs and gates outside the cone get no SAT variable; each gate in
    # it gets three clauses, the literal itself none
    c = Circuit()
    a, b, unused, d = (c.add_input(name) for name in "abud")
    g = c.and_(a, negate(b))
    c.and_(unused, a)
    h = c.and_(negate(g), d)
    s = Solver()
    assert c.to_cnf(s, negate(h)) == {1: 1, 2: 2, 4: 3, 5: 4, 7: 5}
    assert s.db == [(-4, 1), (-4, -2), (4, -1, 2),
                    (-5, 3), (-5, -4), (5, -3, 4)]


# ----------------------------------------------------------------------
# NNF through the graph into CNF


def random_nnf(rng, arena, nvars, budget):
    if budget <= 1 or rng.random() < 0.3:
        v = rng.randint(1, nvars)
        return arena.lit(v if rng.random() < 0.5 else -v)
    op = "and" if rng.random() < 0.5 else "or"
    n = rng.randint(2, 3)
    kids = [random_nnf(rng, arena, nvars, budget // n) for _ in range(n)]
    return arena.build(op, kids)


def encoded_agrees_with_evaluate(arena, node, nvars, negated):
    """Encode `node` over variables 1..nvars and assert its root, negated if
    asked, as a unit clause: each assignment of the inputs in the root's
    cone must then be satisfiable exactly when `evaluate` agrees."""
    circuit = Circuit()
    var_lit = {v: circuit.add_input(f"x{v}") for v in range(1, nvars + 1)}
    root = encode_formula(circuit, arena, node, var_lit, {})
    if negated:
        root = negate(root)
    s = Solver()
    sat_var = {}
    if root not in (FALSE_LIT, TRUE_LIT):
        sat_var = circuit.to_cnf(s, root)
        top = sat_var[root // 2]
        s.add_clause([-top if root & 1 else top])
    for bits in itertools.product((0, 1), repeat=nvars):
        values = dict(zip(range(1, nvars + 1), bits))
        want = evaluate(arena, node, values) != negated
        if root in (FALSE_LIT, TRUE_LIT):
            assert want == (root == TRUE_LIT)
            continue
        assumps = [sat_var[lit // 2] if values[v] else -sat_var[lit // 2]
                   for v, lit in var_lit.items() if lit // 2 in sat_var]
        assert s.solve(assumps).sat == want


def test_encode_formula_examples():
    arena = Arena()
    x, y = arena.lit(1), arena.lit(2)
    f = arena.build("or", [arena.build("and", [arena.lit(-1), y]), x])
    encoded_agrees_with_evaluate(arena, f, 2, negated=False)
    encoded_agrees_with_evaluate(arena, f, 2, negated=True)


def test_encode_formula_random(seed=3):
    rng = random.Random(seed)
    for _ in range(40):
        arena = Arena()
        nvars = rng.randint(1, 5)
        node = random_nnf(rng, arena, nvars, rng.randint(2, 12))
        encoded_agrees_with_evaluate(arena, node, nvars, negated=False)
        encoded_agrees_with_evaluate(arena, node, nvars, negated=True)


def test_encode_formula_allocates_one_gate_per_class():
    # two separately built copies of (a | b) & c; `build` keeps one child per
    # class, so `or` over both copies directly would hold one, and each copy
    # is joined under its own disjunction instead
    arena = Arena()

    def copy():
        ab = arena.build(OR, [arena.lit(1), arena.lit(2)])
        return arena.build(AND, [ab, arena.lit(3)])

    first, second = copy(), copy()
    assert first != second and arena.canon[first] == arena.canon[second]
    root = arena.build(AND, [arena.build(OR, [first, arena.lit(4)]),
                             arena.build(OR, [second, arena.lit(5)])])
    nodes = postorder(arena, root)
    gates = [n for n in nodes if arena.kinds[n] in (AND, OR)]
    assert len(gates) == 7
    # (a | b), its conjunction with c, the two disjunctions and the root
    assert len({arena.canon[n] for n in gates}) == 5

    class Counting(Circuit):
        calls = 0

        def and_(self, a, b):
            self.calls += 1
            return super().and_(a, b)

    circuit = Counting()
    var_lit = {v: circuit.add_input(f"x{v}") for v in range(1, 6)}
    lit = encode_formula(circuit, arena, root, var_lit, {})
    assert circuit.calls == 2 * 5  # two binary joins per class, not per node
    assert len(circuit.gates) == 5
    s = Solver()
    circuit.to_cnf(s, lit)
    assert s.nvars == 5 + 5  # gates plus the variables a..e
    assert len(s.db) == 3 * 5
    encoded_agrees_with_evaluate(arena, root, 5, negated=False)
    encoded_agrees_with_evaluate(arena, root, 5, negated=True)


def test_encode_formula_substitution():
    # a variable mapped to a constant literal is substituted by it
    arena = Arena()
    f = arena.build(AND, [arena.lit(-1), arena.lit(2)])
    circuit = Circuit()
    y = circuit.add_input("y")
    assert encode_formula(circuit, arena, f, {1: TRUE_LIT, 2: y},
                          {}) == FALSE_LIT
    root = encode_formula(circuit, arena, f, {1: FALSE_LIT, 2: y}, {})
    assert root == y
    s = Solver()
    sat_var = circuit.to_cnf(s, root)
    s.add_clause([sat_var[root // 2]])
    res = s.solve()
    assert res.sat
    assert res.model[sat_var[y // 2]] == 1


def test_golden_inverter_serialization():
    c = Circuit()
    x = c.add_input("x")
    c.add_output("y", negate(x))
    c.kind = "skolem"
    assert write_aiger(c) == "aag 1 1 0 1 0\n2\n3\ni0 x\no0 y\nc\nskolem\n"


def test_round_trip_preserves_semantics():
    rng = random.Random(5)
    for _ in range(30):
        c = Circuit()
        names = [f"v{i}" for i in range(rng.randint(1, 4))]
        lits = [TRUE_LIT] + [c.add_input(n) for n in names]
        for _ in range(rng.randint(0, 8)):
            a, b = rng.choice(lits), rng.choice(lits)
            if rng.random() < 0.5:
                a = negate(a)
            lits.append(c.and_(a, b))
        c.add_output("f", rng.choice(lits))
        c.kind = rng.choice(["skolem", "herbrand"])
        back = read_aiger(write_aiger(c))
        assert back.kind == c.kind
        assert back.inputs == c.inputs
        for bits in itertools.product([False, True], repeat=len(names)):
            values = dict(zip(names, bits))
            assert back.evaluate(values) == c.evaluate(values)


@pytest.mark.parametrize("text", [
    "",
    "aig 1 1 0 1 0\n2\n3\n",
    "aag 1 1 0 1\n2\n3\n",
    "aag 1 1 1 1 0\n2\n3\n",
    "aag 2 1 0 1 0\n2\n3\n",  # header claims a gate that is missing
    "aag 1 1 0 1 0\n4\n3\n",  # wrong input literal
    "aag 1 1 0 1 0\n2\n",  # truncated
    "aag 2 1 0 1 2\n2\n3\n4 2 2\n",  # gate count mismatch with header
    "aag 2 1 0 1 1\n2\n3\n4 6 2\n",  # gate uses an undefined operand
    "aag 2 1 0 1 1\n2\n3\n5 2 2\n",  # odd gate definition
    "aag 1 1 0 1 0\n2\n9\n",  # output out of range
    "aag 1 1 0 1 0\n2\n3\nq0 x\n",  # bad symbol entry
    "aag 2 2 0 0 0\n2\n4\ni0 x\ni1 x\n",  # duplicate input name
    "aag 1 1 0 1 0\n2\n3\ni7 x\n",  # symbol for unknown input
])
def test_malformed_files_are_rejected(text):
    with pytest.raises(ParseError):
        read_aiger(text)


@pytest.mark.parametrize("text, fragment", [
    ("aag 1 x 0 1 0\n2\n3\n", "bad AIGER header"),
    ("aag 0 -1 0 0 1\n", "negative AIGER header field"),
    ("aag 1 1 0 -1 0\n2\n", "negative AIGER header field"),
    ("aag 2 1 0 1 1\n2\n3\n4 2\n", "bad and-gate line"),
    ("aag 1 1 0 1 0\n2\n3\no5 y\n", "symbol for unknown output"),
    ("aag 1 1 0 1 0\n2\nthree\n", "expected a literal"),
    ("aag 1 1 0 1 0\n2\n-3\n", "negative literal"),
])
def test_malformed_files_name_their_fault(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        read_aiger(text)


def test_inputs_come_before_every_gate():
    # a gate's literal follows the inputs', so a later input would take it
    c = Circuit()
    a = c.add_input("a")
    with pytest.raises(ValueError, match="duplicate"):
        c.add_input("a")
    c.and_(a, c.add_input("b"))
    with pytest.raises(ValueError, match="after the first gate"):
        c.add_input("c")


def test_read_keeps_gate_literals_after_the_inputs():
    text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 a\ni1 c\no0 y\n"
    back = read_aiger(text)
    assert back.gates == [(6, 2, 4)]
    assert write_aiger(back) == text


def test_kind_defaults_to_none():
    back = read_aiger("aag 1 1 0 1 0\n2\n3\ni0 x\no0 y\n")
    assert back.kind is None
    assert back.outputs == [("y", 3)]
