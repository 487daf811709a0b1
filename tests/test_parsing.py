"""Tests for QCIR/QDIMACS reading, writing, and format detection."""

import itertools
import random

import pytest

from helpers import brute_force, random_problem
from qbfkit.formula import (AND, FALSE, LIT, OR, Arena, QbfProblem, Quantifier,
                            Scope, evaluate, problems_equal)
from qbfkit.parsing import (ParseError, detect_format, load_problem, parse_problem,
                            parse_qcir, parse_qdimacs, write_qcir, write_qdimacs)

GOLDEN_QCIR = """\
#QCIR-G14
forall(1)
exists(2)
output(3)
4 = and(-1, 2)
3 = or(1, 4)
"""


def names_of(problem, vars_):
    return [problem.var_names[v] for v in vars_]


def test_golden_qcir_structure():
    p = parse_qcir(GOLDEN_QCIR)
    assert [s.quantifier for s in p.prefix] == [Quantifier.FORALL, Quantifier.EXISTS]
    assert [names_of(p, s.vars) for s in p.prefix] == [["1"], ["2"]]
    arena = p.arena
    assert arena.kinds[p.matrix] == OR
    a, b = arena.payload[p.matrix]
    assert arena.kinds[a] == LIT
    assert p.var_names[arena.payload[a]] == "1"
    assert arena.kinds[b] == AND
    lits = sorted((arena.payload[c] > 0, p.var_names[abs(arena.payload[c])])
                  for c in arena.payload[b])
    assert lits == [(False, "1"), (True, "2")]
    assert p.node_gate  # provenance recorded for expanded gates


def eval_problem_matrix(problem, values_by_name):
    values = {v: values_by_name[problem.var_names[v]] for v in problem.all_vars()}
    return evaluate(problem.arena, problem.matrix, values)


def test_negation_pushed_to_literals():
    text = "#QCIR-G14\nexists(x, y)\noutput(-g)\ng = and(x, -y)\n"
    p = parse_qcir(text)
    for n in range(p.matrix + 1):
        assert p.arena.kinds[n] != FALSE
    for x, y in itertools.product((0, 1), repeat=2):
        got = eval_problem_matrix(p, {"x": x, "y": y})
        assert got == (0 if (x and not y) else 1)


def test_xor_and_ite_semantics():
    text = ("exists(a, b, c)\noutput(g2)\n"
            "g1 = xor(a, b)\ng2 = ite(c, g1, -g1)\n")
    p = parse_qcir(text)
    for a, b, c in itertools.product((0, 1), repeat=3):
        want = (a ^ b) if c else 1 - (a ^ b)
        assert eval_problem_matrix(p, {"a": a, "b": b, "c": c}) == want


def test_negated_xor_semantics():
    text = "exists(a, b)\noutput(-g)\ng = xor(a, b)\n"
    p = parse_qcir(text)
    for a, b in itertools.product((0, 1), repeat=2):
        assert eval_problem_matrix(p, {"a": a, "b": b}) == 1 - (a ^ b)


def test_free_block_closed_existentially():
    text = "free(x)\nforall(y)\noutput(g)\ng = or(x, y)\n"
    p = parse_qcir(text)
    assert [s.quantifier for s in p.prefix] == [Quantifier.EXISTS, Quantifier.FORALL]
    assert names_of(p, p.prefix[0].vars) == ["x"]


def test_undeclared_variables_become_free():
    p = parse_qcir("output(g)\ng = and(x, y)\n")
    assert len(p.prefix) == 1
    assert p.prefix[0].quantifier is Quantifier.EXISTS
    assert sorted(names_of(p, p.prefix[0].vars)) == ["x", "y"]


def test_adjacent_same_quantifier_blocks_merge():
    text = "exists(a)\nexists(b)\nforall(c)\noutput(g)\ng = and(a, b, c)\n"
    p = parse_qcir(text)
    assert [s.quantifier for s in p.prefix] == [Quantifier.EXISTS, Quantifier.FORALL]
    assert names_of(p, p.prefix[0].vars) == ["a", "b"]


def test_gate_quantifier_hoisted():
    text = "forall(x)\noutput(g)\ng = exists(z; g2)\ng2 = and(x, z)\n"
    p = parse_qcir(text)
    assert [s.quantifier for s in p.prefix] == [Quantifier.FORALL, Quantifier.EXISTS]
    assert names_of(p, p.prefix[1].vars) == ["z"]
    assert p.arena.kinds[p.matrix] == AND


def test_negated_gate_quantifier_flips():
    text = "exists(x)\noutput(-g)\ng = exists(z; g2)\ng2 = and(x, z)\n"
    p = parse_qcir(text)
    assert [s.quantifier for s in p.prefix] == [Quantifier.EXISTS, Quantifier.FORALL]
    # -(x and z) == (-x or -z)
    assert p.arena.kinds[p.matrix] == OR


def test_shared_quantifier_gate_hoisted_once_per_polarity():
    text = ("forall(x)\noutput(g0)\ng0 = and(g, g)\n"
            "g = exists(z; g2)\ng2 = or(x, z)\n")
    p = parse_qcir(text)
    assert [s.quantifier for s in p.prefix] == [Quantifier.FORALL, Quantifier.EXISTS]
    assert names_of(p, p.prefix[1].vars) == ["z"]  # both uses are positive
    # the same text with one named copy of the gate per use hoists two
    # variables, and has the same truth value
    copies = parse_qcir("forall(x)\noutput(g0)\ng0 = and(g, h)\n"
                        "g = exists(z; g2)\nh = exists(z; g2)\ng2 = or(x, z)\n")
    assert len(copies.prefix[1].vars) == 2
    assert brute_force(p) == brute_force(copies) is True


def test_qcir_errors():
    cases = [
        ("output(g)\ng = foo(x)\n", "unknown gate type"),
        ("output(g)\ng = and(g)\n", "cyclic"),
        ("output(g)\ng = and(x)\ng = or(x)\n", "already defined"),
        ("exists(x)\nexists(x)\noutput(x)\n", "already defined"),
        ("output(x)\noutput(x)\n", "second output"),
        ("exists(x)\n", "missing output"),
        ("output(x)\nexists(y)\n", "after output"),
        ("g = and(x)\noutput(g)\n", "before output"),
        ("exists()\noutput(x)\n", "empty exists block"),
        ("output(g)\ng = xor(a, b, c)\n", "exactly two"),
        ("output(g)\ng = ite(a, b)\n", "exactly three"),
        ("output(g)\ng = exists(z)\n", "needs ';'"),
        ("output(g)\ng = exists(; x)\n", "binds no variables"),
        ("output(g)\ng = and(x, )\n", "bad literal"),
        ("forall(y)\nfree(x)\noutput(y)\n", "free block must come first"),
        ("exists(x)\nwhat is this\noutput(x)\n", "cannot parse"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError, match=fragment):
            parse_qcir(text)


# ----------------------------------------------------------------------
# QDIMACS


GOLDEN_QDIMACS = """\
c a small instance
p cnf 4 3
a 1 2 0
e 3 0
1 -3 0
2 3 -4 0
-1 0
"""


def test_golden_qdimacs_structure():
    p = parse_qdimacs(GOLDEN_QDIMACS)
    # variable 4 is unbound in the file and closed outermost
    assert [(s.quantifier, s.vars) for s in p.prefix] == [
        (Quantifier.EXISTS, (4,)),
        (Quantifier.FORALL, (1, 2)),
        (Quantifier.EXISTS, (3,)),
    ]
    arena = p.arena
    assert arena.kinds[p.matrix] == AND
    kids = arena.payload[p.matrix]
    assert len(kids) == 3
    assert arena.kinds[kids[0]] == OR
    assert arena.kinds[kids[2]] == LIT  # unit clause collapses to its literal
    assert arena.payload[kids[2]] == -1


def test_qdimacs_empty_clause_is_false():
    p = parse_qdimacs("p cnf 2 2\ne 1 2 0\n1 2 0\n0\n")
    assert p.matrix_constant() is False


def test_qdimacs_no_clauses_is_true():
    p = parse_qdimacs("p cnf 2 0\ne 1 2 0\n")
    assert p.matrix_constant() is True


def test_qdimacs_clause_spanning_lines():
    p = parse_qdimacs("p cnf 3 1\ne 1 2 3 0\n1 2\n3 0\n")
    assert len(p.arena.payload[p.matrix]) == 3  # one ternary clause


def test_qdimacs_errors():
    cases = [
        ("p cnf 2 1\n1 3 0\n", "exceeds declared maximum"),
        ("1 2 0\n", "before problem line"),
        ("p cnf 2 1\np cnf 2 1\n1 0\n", "second problem line"),
        ("p cnf 2 1\n1 2\n", "not terminated"),
        ("p cnf 2 1\n1 0\ne 2 0\n", "after clauses"),
        ("p cnf 2 1\ne 1 2\n1 0\n", "end with 0"),
        ("p nonsense\n", "malformed problem line"),
        ("", "missing problem line"),
        ("p cnf 2 1\ne 1 1 0\n1 0\n", "bound twice"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError, match=fragment):
            parse_qdimacs(text)


# ----------------------------------------------------------------------
# writers and round trips


def test_qcir_round_trip_golden():
    p = parse_qcir(GOLDEN_QCIR)
    again = parse_qcir(write_qcir(p))
    assert problems_equal(p, again)


def test_qcir_round_trip_random(seed=4):
    rng = random.Random(seed)
    for _ in range(30):
        p = random_problem(rng)
        if p.matrix_constant() is not None:
            continue
        again = parse_qcir(write_qcir(p))
        assert problems_equal(p, again)


def test_qcir_writer_handles_constant_matrix():
    arena = Arena()
    p = QbfProblem.make(arena, [Scope(Quantifier.EXISTS, (1,))], arena.const(True),
                        {1: "x"})
    again = parse_qcir(write_qcir(p))
    assert again.matrix_constant() is True
    p = QbfProblem.make(arena, [Scope(Quantifier.EXISTS, (1,))], arena.const(False),
                        {1: "x"})
    assert parse_qcir(write_qcir(p)).matrix_constant() is False


def test_qcir_gate_names_avoid_variable_names():
    text = "exists(_g1)\noutput(g)\ng = and(_g1, _g1)\n"
    p = parse_qcir(text)
    written = write_qcir(p)
    assert problems_equal(p, parse_qcir(written))


def test_qdimacs_round_trip_is_stable():
    p = parse_qdimacs(GOLDEN_QDIMACS)
    text = write_qdimacs(p)
    assert text == write_qdimacs(parse_qdimacs(text))


def recursive_write_qcir(problem):
    """Reference writer: one gate per occurrence, named on entry and written
    on exit of a recursion over the matrix."""
    arena, names = problem.arena, problem.var_names
    prefix = "_g"
    while any(names[v].startswith(prefix) for v in problem.all_vars()):
        prefix = "_" + prefix
    counter = itertools.count(1)
    gate_lines = []

    def render(node):
        kind = arena.kinds[node]
        if kind == LIT:
            lit = arena.payload[node]
            return names[lit] if lit > 0 else "-" + names[-lit]
        gname = f"{prefix}{next(counter)}"
        args = ", ".join(render(c) for c in arena.payload[node])
        connective = {"true": "and", "false": "or"}.get(kind, kind)
        gate_lines.append(f"{gname} = {connective}({args})")
        return gname

    token = render(problem.matrix)
    lines = ["#QCIR-G14"]
    for scope in problem.prefix:
        keyword = "exists" if scope.quantifier is Quantifier.EXISTS else "forall"
        lines.append(f"{keyword}({', '.join(names[v] for v in scope.vars)})")
    return "\n".join(lines + [f"output({token})"] + gate_lines) + "\n"


def test_write_qcir_matches_the_recursive_writer():
    rng = random.Random(360)
    for _ in range(200):
        p = random_problem(rng, max_vars=7, max_budget=40)
        if rng.random() < 0.2:  # a name that forces a longer gate prefix
            p.var_names[p.all_vars()[0]] = "_g1"
        assert write_qcir(p) == recursive_write_qcir(p)
    for value in (True, False):
        arena = Arena()
        arena.lit(1)
        p = QbfProblem.make(arena, [Scope(Quantifier.EXISTS, (1,))],
                            arena.const(value))
        assert write_qcir(p) == recursive_write_qcir(p)


def test_qdimacs_to_qcir_round_trip():
    p = parse_qdimacs(GOLDEN_QDIMACS)
    again = parse_qcir(write_qcir(p))
    assert problems_equal(p, again)


def test_write_qdimacs_rejects_non_cnf():
    p = parse_qcir("exists(x, y)\noutput(g)\ng = or(g2, x)\ng2 = and(x, y)\n")
    with pytest.raises(ValueError, match="not in CNF"):
        write_qdimacs(p)


# ----------------------------------------------------------------------
# detection and loading


def test_detect_format():
    assert detect_format(GOLDEN_QCIR) == "qcir"
    assert detect_format(GOLDEN_QDIMACS) == "qdimacs"
    assert detect_format("", "thing.qcir") == "qcir"
    assert detect_format("", "thing.qdimacs") == "qdimacs"
    assert detect_format("", "thing.cnf") == "qdimacs"
    assert detect_format("output(x)\n") == "qcir"
    with pytest.raises(ParseError, match="cannot determine"):
        detect_format("\n\n")


def test_parse_problem_dispatch():
    a = parse_problem(GOLDEN_QCIR)
    b = parse_problem(GOLDEN_QCIR, fmt="qcir")
    assert problems_equal(a, b)
    with pytest.raises(ValueError, match="unknown format"):
        parse_problem(GOLDEN_QCIR, fmt="smt")


def test_load_problem(tmp_path):
    path = tmp_path / "problem.qcir"
    path.write_text(GOLDEN_QCIR)
    p = load_problem(str(path))
    assert p.scope_count == 2


@pytest.mark.parametrize("uses, prenexed_uses", [
    ("x, k", "x, m"), ("k, x", "m, x")])
def test_nested_gate_quantifiers_rebinding_one_name(uses, prenexed_uses):
    # k rebinds the x that g bound; leaving k restores g's x, which the
    # second order reads afterwards
    text = ("forall(a)\noutput(g)\ng = exists(x; h)\n"
            f"h = and({uses})\nk = forall(x; m)\nm = or(x, -x, a)\n")
    p = parse_qcir(text)
    prenexed = parse_qcir(
        "forall(a)\nexists(x)\nforall(x_1)\noutput(g)\n"
        f"m = or(x_1, -x_1, a)\ng = and({prenexed_uses})\n")
    assert problems_equal(p, prenexed)
    assert brute_force(p) is brute_force(prenexed) is True


@pytest.mark.parametrize("value", [True, False])
def test_qdimacs_round_trips_constant_matrices(value):
    arena = Arena()
    p = QbfProblem.make(arena, [Scope(Quantifier.FORALL, (1,)),
                                Scope(Quantifier.EXISTS, (2,))],
                        arena.const(value))
    text = write_qdimacs(p)
    back = parse_qdimacs(text)
    assert back.matrix_constant() is value
    assert problems_equal(p, back)
    assert write_qdimacs(back) == text
