"""Strategy extraction from proof traces and certificate checking.

A solved problem yields strategy functions for the winning side: Skolem
functions for the existential variables when the problem is true, Herbrand
functions for the universal variables when it is false. Each function maps
the variables its owner may react to - the outer variables of the opposite
kind - to a move, and substituting the functions into the matrix makes it a
tautology (Skolem) or unsatisfiable (Herbrand) over the remaining variables.

Extraction replays the solver's proof pairs. A pair at block ``k`` says: in
the round where exactly the granted interface nodes ``pair.nodes`` were
settled by outer blocks, assigning ``pair.true_vars`` true (the rest of the
block false) wins. The grant of node ``n`` is itself a formula over outer
variables - the part of ``n`` the outer blocks can see, in the block's
polarity - so each pair becomes a guarded move: its guard is the
conjunction of its grant conditions, pairs at a block are tried in recorded
order, and the first guard that fires supplies the move. Outer strategy
functions are substituted into deeper guards, which keeps every function a
circuit over opposite-kind inputs only.

Checking builds a miter: the certificate's gates and the matrix, with each
function substituted for its variable, go into one structurally hashed
and-inverter graph. A matrix subformula a grant condition copied becomes the
gate it copied, so the SAT search never has to prove two copies equal; a
goal that folds to a constant needs no search at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abstraction import InfluenceMap, compute_influence
from .aiger import FALSE_LIT, TRUE_LIT, Circuit
from .aiger import negate as aig_not
from .formula import (AND, LIT, OR, TRUE, Arena, InternalError, QbfProblem,
                      Quantifier, class_postorder, dependencies, node_vars)
from .parsing import ParseError
from .sat import Solver
from .solver import ProofPair, ProofTrace


def condition_formula(problem: QbfProblem, node: int,
                      scope_index: int) -> Circuit:
    """The grant condition of an interface node, as a one-output circuit.

    For a node on the incoming interface of the given block, this is the
    outer-visible part of the node in the block's polarity: the function of
    strictly outer variables that holds exactly when the outer rounds have
    settled the node in the block's favor. The circuit's inputs are the
    variables of the blocks before ``scope_index``; its output is named
    ``condition``.
    """
    circuit = Circuit()
    var_lit = {v: circuit.add_input(problem.var_names[v])
               for scope in problem.prefix[:scope_index - 1] for v in scope.vars}
    circuit.add_output("condition", _condition(
        circuit, problem, compute_influence(problem), node, scope_index,
        var_lit, {}))
    return circuit


def _condition(circuit: Circuit, problem: QbfProblem, influence: InfluenceMap,
               node: int, scope_index: int, var_lit: dict[int, int],
               encoded: dict[int, int]) -> int:
    """Encode the grant condition of `node` at a block into the circuit.

    The condition keeps the children of `node` whose `max_scope` lies
    before the block, each encoded once per structural class through
    `encoded` (see `_encode_formula`) and negated at a universal block. The
    pieces are joined by the node's connective, dualized at a universal
    block.
    """
    if (node not in influence.min_scope
            or not influence.straddles(node, scope_index - 1)):
        raise InternalError(
            f"node {node} is not on the incoming interface of block "
            f"{scope_index}")
    negated = problem.prefix[scope_index - 1].quantifier is Quantifier.FORALL
    arena = problem.arena
    pieces = []
    for child in arena.payload[node]:
        if influence.max_scope[child] < scope_index:
            out = _encode_formula(circuit, arena, child, var_lit, encoded)
            pieces.append(aig_not(out) if negated else out)
    if (arena.kinds[node] == AND) != negated:
        return circuit.and_many(pieces)
    return circuit.or_many(pieces)


def _encode_formula(circuit: Circuit, arena: Arena, node: int,
                    var_lit: dict[int, int], encoded: dict[int, int]) -> int:
    """Encode an NNF subformula into the circuit, substituting variables.

    `var_lit` maps each variable of the subformula to a circuit literal.
    `encoded` memoizes the circuit literal of every structural class
    (`arena.canon`) encoded so far, across calls, so each class is encoded
    once however many nodes it has. Reusing it is sound as long as no entry
    of `var_lit` that an encoded class reads is changed afterwards.
    """
    kinds, payload, canon = arena.kinds, arena.payload, arena.canon
    for n in class_postorder(arena, node, encoded):
        kind = kinds[n]
        if kind == LIT:
            lit = payload[n]
            base = var_lit[abs(lit)]
            out = base if lit > 0 else aig_not(base)
        elif kind == AND:
            out = circuit.and_many([encoded[canon[c]] for c in payload[n]])
        elif kind == OR:
            out = circuit.or_many([encoded[canon[c]] for c in payload[n]])
        else:
            out = TRUE_LIT if kind == TRUE else FALSE_LIT
        encoded[canon[n]] = out
    return encoded[canon[node]]


def extract_functions(problem: QbfProblem, trace: ProofTrace,
                      value: bool) -> Circuit:
    """Build the winning side's strategy circuit from a proof trace of an
    unpreprocessed problem."""
    return build_certificate(problem, problem, {}, trace, value)


def build_certificate(original: QbfProblem, reduced: QbfProblem,
                      eliminated: dict[int, bool], trace: ProofTrace,
                      value: bool) -> Circuit:
    """Build the winning side's strategy circuit from a proof trace.

    ``trace`` comes from solving ``reduced``, the preprocessed form of
    ``original``. Inputs and outputs follow the original prefix: a variable
    preprocessing eliminated becomes a constant output valued per
    ``eliminated``.
    """
    func_q = Quantifier.EXISTS if value else Quantifier.FORALL
    names = original.var_names
    circuit = Circuit()
    circuit.kind = "skolem" if value else "herbrand"
    var_lit = {v: circuit.add_input(names[v]) for v in original.all_vars()
               if original.quantifier_of(v) is not func_q}

    strategy: dict[int, int] = {}
    if reduced.matrix_constant() is None:
        influence = compute_influence(reduced)
        # Grant conditions at block k read only variables of blocks before k,
        # whose entries in var_lit are final by then, so one memo of encoded
        # classes serves every block.
        encoded: dict[int, int] = {}
        condition: dict[tuple[int, int], int] = {}  # (node, block) -> literal

        def condition_lit(n: int, k: int) -> int:
            lit = condition.get((n, k))
            if lit is None:
                lit = condition[n, k] = _condition(
                    circuit, reduced, influence, n, k, var_lit, encoded)
            return lit

        pairs_at = trace.by_scope()
        for k, scope in enumerate(reduced.prefix, start=1):
            if scope.quantifier is not func_q:
                continue
            fires: list[tuple[ProofPair, int]] = []
            earlier = FALSE_LIT
            for pair in pairs_at.get(k, ()):
                guard = circuit.and_many(condition_lit(n, k)
                                         for n in sorted(pair.nodes))
                fires.append((pair, circuit.and_(guard, aig_not(earlier))))
                earlier = circuit.or_(earlier, guard)
            for v in scope.vars:
                strategy[v] = circuit.or_many(
                    fire for pair, fire in fires if v in pair.true_vars)
                var_lit[v] = strategy[v]

    for v in original.all_vars():
        if original.quantifier_of(v) is not func_q:
            continue
        if v in strategy:
            lit = strategy[v]
        elif v in eliminated:
            lit = TRUE_LIT if eliminated[v] else FALSE_LIT
        else:
            lit = FALSE_LIT
        circuit.add_output(names[v], lit)
    return circuit


@dataclass(frozen=True)
class VerifyResult:
    status: str  # "valid", "invalid" or "ill-formed"
    counterexample: dict[str, bool] | None = None
    reason: str | None = None

    @property
    def valid(self) -> bool:
        return self.status == "valid"


def verify(problem: QbfProblem, circuit: Circuit) -> VerifyResult:
    """Check a strategy circuit against a problem.

    A well-formed certificate has one output per variable of its kind,
    reads only opposite-kind inputs, and respects the prefix order (each
    function's input cone stays within the variables it may react to).

    Validity is decided on a miter: the certificate's gates and the matrix,
    each function output in place of its variable, are built into one
    circuit. The goal - the negated matrix (Skolem) or the matrix
    (Herbrand) - must be unsatisfiable. A goal that folds to a constant is
    decided at once, any other by one SAT call over the goal's cone. An
    invalid certificate comes with a counterexample: values of the
    opposite-kind variables, in variable order, under which the strategy
    loses; inputs outside the goal's cone read False.
    """
    if circuit.kind == "skolem":
        func_q = Quantifier.EXISTS
    elif circuit.kind == "herbrand":
        func_q = Quantifier.FORALL
    else:
        return VerifyResult("ill-formed", reason="certificate kind is missing")

    names = problem.var_names
    var_of_name = {name: v for v, name in names.items()}
    func_vars = [v for v in problem.all_vars()
                 if problem.quantifier_of(v) is func_q]
    expected = {names[v] for v in func_vars}
    produced = [name for name, _ in circuit.outputs]
    if len(produced) != len(set(produced)):
        return VerifyResult("ill-formed", reason="duplicate output")
    if set(produced) != expected:
        return VerifyResult(
            "ill-formed",
            reason=f"outputs must be exactly the {circuit.kind} variables")
    opposite = {names[v] for v in problem.all_vars()
                if problem.quantifier_of(v) is not func_q}
    stray = sorted(set(circuit.inputs) - opposite)
    if stray:
        return VerifyResult(
            "ill-formed", reason=f"inputs {stray} are not reaction variables")
    # The deepest prefix block of any input in each certificate variable's
    # support, 0 for none. Every input is of the opposite kind, so a
    # function reads only the variables it may react to iff that block lies
    # before its own.
    depth = [0] * (circuit.max_var + 1)
    for name in circuit.inputs:
        depth[circuit.input_lit(name) // 2] = problem.var_scope[
            var_of_name[name]]
    for lhs, a, b in circuit.gates:
        depth[lhs // 2] = max(depth[a // 2], depth[b // 2])
    output_lit = dict(circuit.outputs)
    for v in func_vars:
        lit = output_lit[names[v]]
        if depth[lit // 2] >= problem.var_scope[v]:
            allowed = {names[d] for d in dependencies(problem, v)}
            outside = sorted(circuit.cone_inputs(lit) - allowed)
            return VerifyResult(
                "ill-formed",
                reason=f"function for {names[v]} depends on {outside}, "
                "which are not outer variables of the opposite kind")

    miter = Circuit()
    lit_of = [FALSE_LIT] * (circuit.max_var + 1)  # certificate var -> literal
    var_lit: dict[int, int] = {}
    for name in circuit.inputs:
        lit_of[circuit.input_lit(name) // 2] = var_lit[var_of_name[name]] = \
            miter.add_input(name)
    for lhs, a, b in circuit.gates:
        lit_of[lhs // 2] = miter.and_(lit_of[a // 2] ^ (a & 1),
                                      lit_of[b // 2] ^ (b & 1))
    for name, lit in circuit.outputs:
        var_lit[var_of_name[name]] = lit_of[lit // 2] ^ (lit & 1)
    for v in sorted(node_vars(problem.arena, problem.matrix) - var_lit.keys()):
        var_lit[v] = miter.add_input(names[v])
    matrix = _encode_formula(miter, problem.arena, problem.matrix, var_lit, {})
    goal = aig_not(matrix) if func_q is Quantifier.EXISTS else matrix
    if goal == FALSE_LIT:
        return VerifyResult("valid")

    value = {}  # miter variable -> value in the counterexample
    if goal != TRUE_LIT:
        solver = Solver()
        cone = miter.cone(goal)
        sat_var = {v: solver.fresh_var() for v in cone}

        def to_sat(lit: int) -> int:
            base = sat_var[lit // 2]
            return -base if lit & 1 else base

        gates, first_gate = miter.gates, len(miter.inputs) + 1
        for v in cone:
            if v < first_gate:
                continue
            _, a, b = gates[v - first_gate]
            gate, lit_a, lit_b = sat_var[v], to_sat(a), to_sat(b)
            solver.add_clause([-gate, lit_a])
            solver.add_clause([-gate, lit_b])
            solver.add_clause([gate, -lit_a, -lit_b])
        solver.add_clause([to_sat(goal)])
        result = solver.solve([])
        if not result.sat:
            return VerifyResult("valid")
        value = {v: bool(result.model[s]) for v, s in sat_var.items()}
    counterexample = {names[v]: value.get(lit // 2, False)
                      for v, lit in sorted(var_lit.items())
                      if problem.quantifier_of(v) is not func_q}
    failure = ("the matrix can be falsified" if circuit.kind == "skolem"
               else "the matrix can be satisfied")
    return VerifyResult("invalid", counterexample=counterexample,
                        reason=f"{failure} under the strategy")


# ----------------------------------------------------------------------
# proof trace serialization

def write_trace(problem: QbfProblem, trace: ProofTrace) -> str:
    """Render a proof trace; `g` lines relate node ids to source gates, one
    line per node, naming the first gate when several were merged into it."""
    lines = []
    for node in sorted(problem.node_gate):
        lines.append(f"g {node} {problem.node_gate[node]}")
    for pair in trace.pairs:
        parts = ["p", str(pair.scope),
                 "t", *(str(n) for n in sorted(pair.nodes)),
                 "x", *(str(v) for v in sorted(pair.true_vars))]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n" if lines else ""


def read_trace(text: str) -> ProofTrace:
    trace = ProofTrace()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("g "):
            continue
        tokens = line.split()
        if tokens[0] != "p" or len(tokens) < 3 or "t" not in tokens \
                or "x" not in tokens:
            raise ParseError(f"line {lineno}: bad proof pair {raw!r}")
        try:
            scope = int(tokens[1])
            t_at = tokens.index("t")
            x_at = tokens.index("x")
            if not (t_at == 2 and x_at > t_at):
                raise ValueError
            nodes = frozenset(int(tok) for tok in tokens[t_at + 1:x_at])
            true_vars = frozenset(int(tok) for tok in tokens[x_at + 1:])
        except ValueError:
            raise ParseError(f"line {lineno}: bad proof pair {raw!r}") from None
        trace.record(ProofPair(scope, nodes, true_vars))
    return trace
