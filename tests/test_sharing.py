"""Gates shared by name in QCIR stay one node from parsing to verification."""

import itertools
import random
import sys
import time

from qbfkit.aiger import negate, read_aiger, write_aiger
from qbfkit.bench import gen_qparity
from qbfkit.certify import build_certificate, read_trace, verify
from qbfkit.formula import (AND, LIT, OR, Arena, QbfProblem, Scope,
                            class_postorder, postorder, problems_equal)
from qbfkit.parsing import _QcirReader, parse_qcir, write_qcir
from qbfkit.preprocess import PreprocessInfo, preprocess
from qbfkit.sat import Solver
from qbfkit.solver import solve_abstraction, solve_assignment

import qbfkit.cli as cli

from helpers import brute_force, random_nnf, random_prefix


def xor_chain(n: int) -> str:
    """exists x1..xn forall z: z equals the parity of X (false).

    Each gate ``p_i = xor(p_{i-1}, x_i)`` uses the previous gate in both
    polarities, so expanding every use separately doubles at each level.
    """
    lines = ["#QCIR-G14",
             "exists(" + ", ".join(f"x{i}" for i in range(1, n + 1)) + ")",
             "forall(z)",
             "output(m)"]
    prev = "x1"
    for i in range(2, n + 1):
        lines.append(f"p{i} = xor({prev}, x{i})")
        prev = f"p{i}"
    lines += [f"a = or(z, {prev})", f"b = or(-z, -{prev})", "m = and(a, b)"]
    return "\n".join(lines) + "\n"


def random_shared_qcir(rng, quantifiers=False):
    """A random QCIR text whose gates reuse recently defined gates.

    With `quantifiers`, some gates are gate quantifiers that rebind names of
    the prefix, so the gates they read are expanded under those bindings.
    Returns the text, the number of gates, and the truth value computed
    straight from the gate definitions, without qbfkit.
    """
    names = [f"v{i}" for i in range(1, rng.randint(2, 9) + 1)]
    order = names[:]
    rng.shuffle(order)
    blocks = []
    while order:
        take = rng.randint(1, len(order))
        blocks.append((rng.choice(("exists", "forall")), order[:take]))
        order = order[take:]
    gates = []
    for i in range(rng.randint(1, 10)):
        if quantifiers and gates and rng.random() < 0.3:
            op = rng.choice(("exists", "forall"))
            rebound = rng.sample(names, rng.randint(1, 2))
            args = [(rng.choice(gates[-3:])[0], rng.random() < 0.4)]
            gates.append((f"g{i}", op, args, rebound))
            continue
        op = rng.choice(("and", "or", "xor", "ite"))
        arity = {"xor": 2, "ite": 3}.get(op) or rng.randint(2, 3)
        args = []
        for _ in range(arity):
            if gates and rng.random() < 0.6:
                source = rng.choice(gates[-3:])[0]
            else:
                source = rng.choice(names)
            args.append((source, rng.random() < 0.4))
        gates.append((f"g{i}", op, args, []))
    out, out_neg = gates[-1][0], rng.random() < 0.3

    lines = ["#QCIR-G14"]
    lines += [f"{q}({', '.join(vs)})" for q, vs in blocks]
    lines.append(f"output({'-' if out_neg else ''}{out})")
    for name, op, args, rebound in gates:
        rendered = ", ".join(("-" if neg else "") + a for a, neg in args)
        if rebound:
            rendered = f"{', '.join(rebound)}; {rendered}"
        lines.append(f"{name} = {op}({rendered})")

    definitions = {name: (op, args, rebound) for name, op, args, rebound in gates}
    memo = {}

    def value(name, env):
        if name not in definitions:
            return env[name]
        key = (name, tuple(env[v] for v in names))
        if key in memo:
            return memo[key]
        op, args, rebound = definitions[name]
        if rebound:
            (a, neg), = args
            outcomes = (value(a, {**env, **dict(zip(rebound, bits))}) != neg
                        for bits in itertools.product((False, True),
                                                      repeat=len(rebound)))
            result = any(outcomes) if op == "exists" else all(outcomes)
        else:
            bits = [value(a, env) != neg for a, neg in args]
            if op == "and":
                result = all(bits)
            elif op == "or":
                result = any(bits)
            elif op == "xor":
                result = bits[0] != bits[1]
            else:
                result = bits[1] if bits[0] else bits[2]
        memo[key] = result
        return result

    quantified = [(q, v) for q, vs in blocks for v in vs]

    def truth(index, values):
        if index == len(quantified):
            return value(out, values) != out_neg
        q, v = quantified[index]
        outcomes = (truth(index + 1, {**values, v: bit}) for bit in (False, True))
        return any(outcomes) if q == "exists" else all(outcomes)

    return "\n".join(lines) + "\n", len(gates), truth(0, {})


def has_shared_node(problem) -> bool:
    arena = problem.arena
    reachable = postorder(arena, problem.matrix)
    edges = sum(len(arena.payload[n]) for n in reachable
                if arena.kinds[n] in (AND, OR))
    return edges > len(reachable) - 1


def test_random_shared_gates_agree_with_oracles():
    rng = random.Random(20261017)
    outcomes = set()
    shared = 0
    for _ in range(300):
        text, ngates, expected = random_shared_qcir(rng)
        problem = parse_qcir(text)
        # at most two polarities of an or-of-ands with fresh leaves per gate
        assert len(problem.arena) <= 14 * ngates, text
        assert brute_force(problem) == expected, text
        shared += has_shared_node(problem)
        for reduce in (False, True):
            if reduce:
                reduced, info = preprocess(problem)
            else:
                reduced, info = problem, PreprocessInfo()
            value, trace, _ = solve_abstraction(reduced)
            assert value == expected, (reduce, text)
            assert solve_assignment(reduced)[0] == expected, (reduce, text)
            circuit = build_certificate(problem, reduced, info.eliminated,
                                        trace, value)
            result = verify(problem, circuit)
            assert result.valid, (reduce, result, text)
        outcomes.add(expected)
    assert outcomes == {False, True}
    assert shared >= 100


def test_xor_chain_of_forty_levels_stays_linear():
    start = time.perf_counter()
    problem = parse_qcir(xor_chain(40))
    assert len(problem.arena) < 500
    reduced, info = preprocess(problem)
    value, trace, _ = solve_abstraction(reduced)
    circuit = build_certificate(problem, reduced, info.eliminated, trace, value)
    assert value is False
    assert verify(problem, circuit).valid
    assert time.perf_counter() - start < 2.0


def test_each_xor_level_keeps_one_gate_triple(monkeypatch):
    # Both polarities of an XOR level share one gate triple, in the
    # certificate and in verify's miter, so certificates stay at three gates
    # per level and verify's one SAT call ends almost at once. In the solve,
    # they share one claim, so its queries end almost at once too. The
    # chained parity's dual swaps the quantifiers, so it is true and
    # certifies z by a Skolem function. The counts are exact, not timings.
    chained = gen_qparity(256, chain=True)
    dual = QbfProblem.make(
        chained.arena,
        [Scope(scope.quantifier.complement, scope.vars)
         for scope in chained.prefix],
        chained.matrix, chained.var_names)
    conflicts = []
    solve = Solver.solve

    def counted(solver, assumptions=()):
        before = solver.conflicts
        result = solve(solver, assumptions)
        conflicts.append(solver.conflicts - before)
        return result

    for problem, levels, expected in ((parse_qcir(xor_chain(250)), 249, False),
                                      (chained, 255, False),
                                      (dual, 255, True)):
        reduced, info = preprocess(problem)
        conflicts.clear()
        monkeypatch.setattr(Solver, "solve", counted)
        value, trace, stats = solve_abstraction(reduced)
        monkeypatch.undo()
        assert value is expected
        assert (stats.total_iterations, sum(stats.refinements)) == (7, 2)
        assert sum(conflicts) <= 2, conflicts
        circuit = build_certificate(problem, reduced, info.eliminated, trace,
                                    value)
        assert len(circuit.gates) <= 3 * levels
        conflicts.clear()
        monkeypatch.setattr(Solver, "solve", counted)
        assert verify(problem, circuit).valid
        monkeypatch.undo()
        assert len(conflicts) == 1 and conflicts[0] <= 2, conflicts


def test_separately_written_copies_of_a_gate_dag_compare_once_per_pair():
    """Two xor chains written out apart are structurally equal; `build`
    drops one under the `or` over their tops without comparing per path."""
    n = 40
    lines = ["#QCIR-G14",
             "exists(" + ", ".join(f"x{i}" for i in range(1, n + 1)) + ")",
             "forall(z)",
             "output(m)"]
    for chain in "ab":
        prev = "x1"
        for i in range(2, n + 1):
            lines.append(f"{chain}{i} = xor({prev}, x{i})")
            prev = f"{chain}{i}"
    lines += [f"t = or(a{n}, b{n})", "u = or(z, t)", f"v = or(-z, -a{n})",
              "m = and(u, v)"]
    start = time.perf_counter()
    problem = parse_qcir("\n".join(lines) + "\n")
    assert time.perf_counter() - start < 1.0
    reduced, info = preprocess(problem)
    value, trace, _ = solve_abstraction(reduced)
    assert value is False
    circuit = build_certificate(problem, reduced, info.eliminated, trace, value)
    assert verify(problem, circuit).valid

SHADOWED = """\
#QCIR-G14
exists(x, y)
output(top)
g = or(x, y)
q = forall(x; g)
top = and({first}, {second})
"""

SHADOWED_UNSHARED = """\
#QCIR-G14
exists(x, y)
output(top)
g1 = or(x, y)
g2 = or(x, y)
q = forall(x; g2)
top = and({first}, {second})
"""


def test_gate_under_a_shadowing_quantifier_is_expanded_apart():
    for first, second in (("g", "q"), ("q", "g")):
        problem = parse_qcir(SHADOWED.format(first=first, second=second))
        arena = problem.arena
        left, right = arena.payload[problem.matrix]
        assert arena.kinds[left] == arena.kinds[right] == OR
        names = [{problem.var_names[abs(arena.payload[c])]
                  for c in arena.payload[n]} for n in (left, right)]
        assert sorted(map(sorted, names)) == [["x", "y"], ["x_1", "y"]]
        unshared = SHADOWED_UNSHARED.format(
            first="g1" if first == "g" else first,
            second="g1" if second == "g" else second)
        assert problems_equal(problem, parse_qcir(unshared))


def test_gate_hoisting_a_quantifier_is_renamed_apart_per_use():
    shared = parse_qcir("#QCIR-G14\nexists(x)\noutput(top)\n"
                        "h = xor(w, x)\nq = forall(w; h)\ntop = or(q, -q)\n")
    unshared = parse_qcir("#QCIR-G14\nexists(x)\noutput(top)\n"
                          "h1 = xor(w, x)\nh2 = xor(w, x)\n"
                          "q1 = forall(w; h1)\nq2 = forall(w; h2)\n"
                          "top = or(q1, -q2)\n")
    assert problems_equal(shared, unshared)
    assert sorted(shared.var_names.values()) == ["w", "w_1", "x"]


def random_hoisting_qcir(rng):
    """A random QCIR text reusing one quantifier gate in both polarities.

    Returns the text, the same formula written as a tree (one named copy of
    a gate per reference to it, so the parser expands every use of the
    quantifier gate apart), and the truth value computed straight from the
    gate definitions, gate quantifiers included, without qbfkit.
    """
    names = [f"v{i}" for i in range(1, rng.randint(1, 3) + 1)]
    order = names[:]
    rng.shuffle(order)
    blocks = []
    while order:
        take = rng.randint(1, len(order))
        blocks.append((rng.choice(("exists", "forall")), order[:take]))
        order = order[take:]
    gates = {
        "b": (rng.choice(("and", "or", "xor")),
              [("y", rng.random() < 0.4), (rng.choice(names), rng.random() < 0.4)]),
        "q": (rng.choice(("exists", "forall")), [("b", False)]),
        # an xor reads q in both polarities; later gates may read it again
        "g0": ("xor", [("q", False), (rng.choice(names), False)]),
    }
    for i in range(1, rng.randint(1, 3) + 1):
        other = rng.choice(["q", f"g{i - 1}"] + names)
        gates[f"g{i}"] = (rng.choice(("and", "or", "xor")),
                          [(f"g{i - 1}", rng.random() < 0.4),
                           (other, rng.random() < 0.4)])
    out = f"g{i}"

    def render(tree: bool) -> str:
        lines = []
        copies = itertools.count(1)
        defined = set()

        def ref(name: str) -> str:
            if name not in gates:
                return name
            if tree:
                label = f"{name}_{next(copies)}"
            elif name in defined:
                return name
            else:
                label = name
            defined.add(label)
            op, args = gates[name]
            rendered = [("-" if neg else "") + ref(a) for a, neg in args]
            if name == "q":
                lines.append(f"{label} = {op}(y; {rendered[0]})")
            else:
                lines.append(f"{label} = {op}({', '.join(rendered)})")
            return label

        head = ["#QCIR-G14"] + [f"{q}({', '.join(vs)})" for q, vs in blocks]
        head.append(f"output({ref(out)})")
        return "\n".join(head + lines) + "\n"

    def value(name, env):
        if name in env:
            return env[name]
        op, args = gates[name]
        if name == "q":
            outcomes = (value("b", {**env, "y": bit}) for bit in (False, True))
            return any(outcomes) if op == "exists" else all(outcomes)
        bits = [value(a, env) != neg for a, neg in args]
        if op == "and":
            return all(bits)
        if op == "or":
            return any(bits)
        return bits[0] != bits[1]

    quantified = [(q, v) for q, vs in blocks for v in vs]

    def truth(index, env):
        if index == len(quantified):
            return value(out, env)
        q, v = quantified[index]
        outcomes = (truth(index + 1, {**env, v: bit}) for bit in (False, True))
        return any(outcomes) if q == "exists" else all(outcomes)

    return render(False), render(True), truth(0, {})


def test_hoisting_gate_memoized_per_polarity_agrees_with_per_use_copies():
    rng = random.Random(20261018)
    outcomes = set()
    fewer = 0
    for _ in range(300):
        while True:
            memo_text, tree_text, expected = random_hoisting_qcir(rng)
            per_use = parse_qcir(tree_text)
            if len(per_use.var_names) <= 12:  # keeps brute force cheap
                break
        memo = parse_qcir(memo_text)
        assert brute_force(memo) == brute_force(per_use) == expected, memo_text
        # one hoisted copy of y per polarity at most
        assert sum(name.startswith("y") for name in memo.var_names.values()) <= 2
        assert len(memo.var_names) <= len(per_use.var_names)
        fewer += len(memo.var_names) < len(per_use.var_names)
        reduced, info = preprocess(memo)
        value, trace, _ = solve_abstraction(reduced)
        assert value == expected, memo_text
        circuit = build_certificate(memo, reduced, info.eliminated, trace,
                                    value)
        assert verify(memo, circuit).valid, memo_text
        outcomes.add(expected)
    assert outcomes == {False, True}
    assert fewer >= 150


def hoisting_chain(levels: int) -> str:
    """A quantifier gate under a chain of xors, each reading the previous
    gate in both polarities: expanded per use, it doubles at every level."""
    lines = ["#QCIR-G14", "exists(x)", f"output(g{levels})",
             "q = exists(y; t)", "t = and(y, x)", "g0 = or(q, x)"]
    lines += [f"g{i} = xor(g{i - 1}, x)" for i in range(1, levels + 1)]
    return "\n".join(lines) + "\n"


def test_hoisting_gate_chain_of_two_hundred_levels_stays_linear():
    start = time.perf_counter()
    problem = parse_qcir(hoisting_chain(200))
    assert len(problem.arena) <= 11 * 200
    assert len(problem.var_names) == 3
    reduced, info = preprocess(problem)
    value, trace, _ = solve_abstraction(reduced)
    assert value is True  # g200 is x xor'ed with x an even number of times
    circuit = build_certificate(problem, reduced, info.eliminated, trace, value)
    assert verify(problem, circuit).valid
    assert time.perf_counter() - start < 2.0


def gate_quantified_xor_chain(n: int) -> str:
    """exists x1..xn: exists y (p_n | y), which is true, where the xor chain
    ``p_i = xor(p_{i-1}, x_i)`` is read inside the gate quantifier's body."""
    lines = ["#QCIR-G14",
             "exists(" + ", ".join(f"x{i}" for i in range(1, n + 1)) + ")",
             "output(q)", "q = exists(y; r)", f"r = or(p{n}, y)"]
    prev = "x1"
    for i in range(2, n + 1):
        lines.append(f"p{i} = xor({prev}, x{i})")
        prev = f"p{i}"
    return "\n".join(lines) + "\n"


def test_xor_chain_under_a_gate_quantifier_stays_linear():
    # the chain reads no name that a gate quantifier binds, so inside the
    # quantifier's body each of its gates is one node per polarity too
    text = gate_quantified_xor_chain(40)
    start = time.perf_counter()
    problem = parse_qcir(text)
    assert time.perf_counter() - start < 1.0
    assert len(problem.arena) <= 12 * len(text.splitlines())
    reduced, info = preprocess(problem)
    value, trace, _ = solve_abstraction(reduced)
    assert value is True
    circuit = build_certificate(problem, reduced, info.eliminated, trace, value)
    assert verify(problem, circuit).valid


def test_random_shared_gates_under_gate_quantifiers_agree_with_oracles():
    rng = random.Random(20261021)
    outcomes = set()
    quantified = shared = 0
    for _ in range(300):
        while True:
            text, _, expected = random_shared_qcir(rng, quantifiers=True)
            problem = parse_qcir(text)
            if len(problem.var_names) <= 12:  # keeps brute force cheap
                break
        assert brute_force(problem) == expected, text
        if ";" in text:
            quantified += 1
            shared += has_shared_node(problem)
        for reduce in (False, True):
            if reduce:
                reduced, info = preprocess(problem)
            else:
                reduced, info = problem, PreprocessInfo()
            value, trace, _ = solve_abstraction(reduced)
            assert value == expected, (reduce, text)
            assert solve_assignment(reduced)[0] == expected, (reduce, text)
            circuit = build_certificate(problem, reduced, info.eliminated,
                                        trace, value)
            assert verify(problem, circuit).valid, (reduce, text)
        outcomes.add(expected)
    assert outcomes == {False, True}
    assert quantified >= 200 and shared >= 70, (quantified, shared)


def test_empty_gates_under_a_gate_quantifier():
    # an empty and/or gate has no argument to carry a support; with a gate
    # quantifier binding `d` in the file, neither must read its op's letters
    for inner, expected in (("or()", False), ("and()", True)):
        text = ("#QCIR-G14\nexists(x)\noutput(q)\n"
                f"q = forall(d; r)\nr = or(h, d)\nh = {inner}\n")
        reader = _QcirReader(text)
        reader.read_lines()
        assert "h" not in reader.supports()
        problem = parse_qcir(text)
        assert brute_force(problem) is expected, text
        assert solve_abstraction(problem)[0] is expected
        assert solve_assignment(problem)[0] is expected


def test_certify_trace_names_gates_of_the_reduced_arena(tmp_path, capsys):
    source = tmp_path / "chain.qcir"
    source.write_text(xor_chain(6))
    trace_path = tmp_path / "chain.trace"
    code = cli.main(["certify", str(source), "-o", str(tmp_path / "c.aag"),
                     "--trace", str(trace_path)])
    capsys.readouterr()
    assert code == 20
    reduced, _ = preprocess(parse_qcir(xor_chain(6)))
    text = trace_path.read_text()
    g_lines = [line.split() for line in text.splitlines()
               if line.startswith("g ")]
    assert g_lines
    assert {(int(n), int(g)) for _, n, g in g_lines} == \
        set(reduced.node_gate.items())
    for _, node, gate in g_lines:
        assert 0 <= int(node) < len(reduced.arena)
        assert 1 <= int(gate) <= 8  # p2..p6, a, b, m
    assert read_trace(text).pairs


def test_merged_gates_name_the_node_of_their_class():
    # g1's own node is flattened into g2's conjunction, and h is a separate
    # copy of the same subformula; preprocessing keeps one node for the
    # class, named after the first gate of it, g1 (gate 1), not h (gate 3)
    problem = parse_qcir("#QCIR-G14\nexists(a, b)\nforall(c, d)\noutput(m)\n"
                         "g1 = and(a, b)\ng2 = and(g1, c)\nh = and(a, b)\n"
                         "g3 = or(d, h)\nk = or(-a, -b, -c, -d)\n"
                         "o = or(g2, g3)\nm = and(o, k)\n")
    reduced, info = preprocess(problem)
    assert not info.eliminated
    arena = reduced.arena
    ab, = (n for n in reduced.node_gate if arena.kinds[n] == AND
           and [arena.kinds[c] for c in arena.payload[n]] == [LIT, LIT])
    assert reduced.node_gate[ab] == 1
    assert 3 not in reduced.node_gate.values()


def test_deep_gate_chain_exits_cleanly(tmp_path, capsys):
    # 3,000 levels of gates, each reading the one before: the reader
    # expands gates over an explicit stack, so the chain parses at the
    # default recursion limit and certifies with or without preprocessing
    n = 3000
    assert sys.getrecursionlimit() < n
    lines = ["#QCIR-G14", "exists(x1)", "forall(x2)", f"output(g{n})",
             "g1 = or(x1, -x2)"]
    for i in range(2, n + 1):
        lines.append(f"g{i} = and(g{i - 1}, x1)" if i % 2 == 0
                     else f"g{i} = or(g{i - 1}, -x2)")
    source, cert = tmp_path / "deep.qcir", tmp_path / "deep.aag"
    source.write_text("\n".join(lines) + "\n")
    for extra in ([], ["--no-preprocess"]):
        code = cli.main(["certify", str(source), "-o", str(cert), *extra])
        assert code == cli.EXIT_TRUE
        assert cli.main(["verify", str(source), str(cert)]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "r TRUE\nValid\n"
        assert captured.err == ""


def random_dag_problem(rng):
    """A random closed problem whose matrix reuses subformulas: random
    trees joined by gates that each take two or three of them."""
    arena = Arena()
    nvars = rng.randint(2, 6)
    pool = [random_nnf(rng, arena, nvars, rng.randint(2, 8))
            for _ in range(rng.randint(2, 4))]
    for _ in range(rng.randint(2, 6)):
        kids = rng.sample(pool, min(len(pool), rng.randint(2, 3)))
        pool.append(arena.build(rng.choice((AND, OR)), kids))
    return QbfProblem.make(arena, random_prefix(rng, nvars), pool[-1])


def rebuilt(arena, node):
    """A structurally equal copy of `node`, made by fresh `lit` and `build`
    calls."""
    copy = {}
    for n in postorder(arena, node):
        if arena.kinds[n] == LIT:
            copy[n] = arena.lit(arena.payload[n])
        else:
            copy[n] = arena.build(arena.kinds[n],
                                  [copy[c] for c in arena.payload[n]])
    return copy[node]


def first_of_each_class(arena, nodes):
    first = {}
    for n in nodes:
        first.setdefault(arena.canon[n], n)
    return list(first.values())


def test_class_postorder_is_postorder_filtered_to_first_of_each_class():
    # on DAGs with copies, and on their tree text, where every gate use is a
    # copy: skipping nodes of listed classes loses nothing and reorders
    # nothing, also when a memo of classes (`done`) is passed in
    rng = random.Random(1313)
    copies = 0
    for _ in range(200):
        dag = random_dag_problem(rng)
        arena = dag.arena
        inner = rng.choice(postorder(arena, dag.matrix))
        mixed = arena.build(rng.choice((AND, OR)),
                            [rebuilt(arena, inner), dag.matrix])
        tree = parse_qcir(write_qcir(dag))
        for arena, root in ((arena, mixed), (tree.arena, tree.matrix)):
            nodes = postorder(arena, root)
            classes = first_of_each_class(arena, nodes)
            copies += len(classes) < len(nodes)
            assert class_postorder(arena, root) == classes
            canon = arena.canon
            for k in (1, rng.randint(0, len(classes))):
                done = {canon[n] for n in rng.sample(classes, k)}
                done_nodes = {n for n in range(len(arena)) if canon[n] in done}
                assert class_postorder(arena, root, done) == \
                    first_of_each_class(arena,
                                        postorder(arena, root, done_nodes))
    assert copies > 300


def test_structurally_equal_copies_are_merged_and_stay_sound():
    """A DAG written as QCIR comes back as a tree of structurally equal
    copies; preprocessing merges them, and verification against the tree
    agrees with verification against the DAG."""
    rng = random.Random(808)
    copies = 0
    flipped = []  # statuses of certificates with a flipped output
    for _ in range(200):
        dag = random_dag_problem(rng)
        tree = parse_qcir(write_qcir(dag))
        nodes = postorder(tree.arena, tree.matrix)
        copies += len({tree.arena.canon[n] for n in nodes}) < len(nodes)
        reduced, info = preprocess(tree)
        reached = postorder(reduced.arena, reduced.matrix)
        classes = [reduced.arena.canon[n] for n in reached]
        assert len(set(classes)) == len(classes), write_qcir(dag)
        expected = brute_force(dag)
        value, trace, _ = solve_abstraction(reduced)
        assert value == expected, write_qcir(dag)
        circuit = read_aiger(write_aiger(build_certificate(
            tree, reduced, info.eliminated, trace, value)))
        assert verify(tree, circuit).status == "valid", write_qcir(dag)
        assert verify(dag, circuit).status == "valid", write_qcir(dag)
        if circuit.outputs:
            name, lit = circuit.outputs[0]
            circuit.outputs[0] = (name, negate(lit))
            flipped.append(verify(tree, circuit).status)
            assert flipped[-1] == verify(dag, circuit).status, write_qcir(dag)
    assert copies >= 150
    assert len(flipped) >= 100 and set(flipped) == {"valid", "invalid"}
