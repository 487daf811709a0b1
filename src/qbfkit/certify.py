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
"""

from __future__ import annotations

from dataclasses import dataclass

from .abstraction import InfluenceMap, compute_influence
from .aiger import FALSE_LIT, TRUE_LIT, Circuit
from .aiger import negate as aig_not
from .formula import (AND, LIT, OR, TRUE, Arena, InternalError, QbfProblem,
                      Quantifier, dependencies, postorder)
from .parsing import ParseError
from .sat import Solver, encode_nnf
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
    before the block, each encoded once per node through `encoded` (see
    `_encode_formula`) and negated at a universal block. The pieces are
    joined by the node's connective, dualized at a universal block.
    """
    if not influence.straddles(node, scope_index - 1):
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
    `encoded` memoizes the circuit literal of every node of `arena` encoded
    so far, across calls. Reusing it is sound as long as no entry of
    `var_lit` that an encoded node reads is changed afterwards.
    """
    kinds, payload = arena.kinds, arena.payload
    for n in postorder(arena, node, encoded):
        kind = kinds[n]
        if kind == LIT:
            lit = payload[n]
            base = var_lit[abs(lit)]
            out = base if lit > 0 else aig_not(base)
        elif kind == AND:
            out = circuit.and_many([encoded[c] for c in payload[n]])
        elif kind == OR:
            out = circuit.or_many([encoded[c] for c in payload[n]])
        else:
            out = TRUE_LIT if kind == TRUE else FALSE_LIT
        encoded[n] = out
    return encoded[node]


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
        # nodes serves every block.
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
    function's input cone stays within the variables it may react to). A
    valid one leaves the matrix impossible to falsify (Skolem) or to satisfy
    (Herbrand) once its functions are substituted; otherwise the SAT model
    is returned as a counterexample assignment of the input variables.
    """
    if circuit.kind == "skolem":
        func_q = Quantifier.EXISTS
    elif circuit.kind == "herbrand":
        func_q = Quantifier.FORALL
    else:
        return VerifyResult("ill-formed", reason="certificate kind is missing")

    var_of_name = {name: v for v, name in problem.var_names.items()}
    func_vars = [v for v in problem.all_vars()
                 if problem.quantifier_of(v) is func_q]
    expected = {problem.var_names[v] for v in func_vars}
    produced = [name for name, _ in circuit.outputs]
    if len(produced) != len(set(produced)):
        return VerifyResult("ill-formed", reason="duplicate output")
    if set(produced) != expected:
        return VerifyResult(
            "ill-formed",
            reason=f"outputs must be exactly the {circuit.kind} variables")
    opposite = {problem.var_names[v] for v in problem.all_vars()
                if problem.quantifier_of(v) is not func_q}
    stray = sorted(set(circuit.inputs) - opposite)
    if stray:
        return VerifyResult(
            "ill-formed", reason=f"inputs {stray} are not reaction variables")
    output_lit = dict(circuit.outputs)
    for v in func_vars:
        name = problem.var_names[v]
        allowed = {problem.var_names[d] for d in dependencies(problem, v)}
        outside = sorted(circuit.cone_inputs(output_lit[name]) - allowed)
        if outside:
            return VerifyResult(
                "ill-formed",
                reason=f"function for {name} depends on {outside}, "
                "which are not outer variables of the opposite kind")

    solver = Solver()
    true_lit = solver.true_lit()
    sat_var = {cv: solver.fresh_var()
               for cv in range(1, circuit.max_var + 1)}

    def to_sat(lit: int) -> int:
        if lit < 2:
            return true_lit if lit == 1 else -true_lit
        base = sat_var[lit // 2]
        return -base if lit & 1 else base

    for lhs, a, b in circuit.gates:
        gate, lit_a, lit_b = to_sat(lhs), to_sat(a), to_sat(b)
        solver.add_clause([-gate, lit_a])
        solver.add_clause([-gate, lit_b])
        solver.add_clause([gate, -lit_a, -lit_b])

    var_map = {var_of_name[name]: to_sat(circuit.input_lit(name))
               for name in circuit.inputs}
    var_map.update({var_of_name[name]: to_sat(lit)
                    for name, lit in circuit.outputs})
    root = encode_nnf(solver, problem.arena, problem.matrix, var_map,
                      negate=func_q is Quantifier.EXISTS)
    solver.add_clause([root])
    result = solver.solve([])
    if not result.sat:
        return VerifyResult("valid")
    counterexample = {problem.var_names[v]: bool(result.model_value(lit))
                      for v, lit in sorted(var_map.items())
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
