"""Tests for the and-inverter graph circuits."""

import itertools
import random

import pytest

from qbfkit.aiger import (FALSE_LIT, TRUE_LIT, Circuit, TwoLevelCircuit,
                          negate, read_aiger, write_aiger)
from qbfkit.parsing import ParseError


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


def lit_table(tables, lit):
    table = tables[lit // 2]
    return table ^ FULL_TABLE if lit & 1 else table


def test_two_level_rules_keep_every_truth_table():
    # 16-row truth tables over 4 inputs, as bit masks indexed by variable
    rng = random.Random(2006)
    inputs = [sum(1 << row for row in range(16) if row >> i & 1)
              for i in range(4)]
    for _ in range(3000):
        c = TwoLevelCircuit()
        lits = [TRUE_LIT] + [c.add_input(f"v{i}") for i in range(4)]
        tables = [0, *inputs]
        for _ in range(12):
            a, b = (negate(lit) if rng.random() < 0.5 else lit
                    for lit in (rng.choice(lits), rng.choice(lits)))
            got = c.and_(a, b)
            for _, x, y in c.gates[len(tables) - 5:]:
                tables.append(lit_table(tables, x) & lit_table(tables, y))
            assert lit_table(tables, got) == (
                lit_table(tables, a) & lit_table(tables, b))
            lits.append(got)


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
