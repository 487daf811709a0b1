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
order, and the first guard that fires supplies the move. A block's pairs
after its last one with a true variable only restate the default all-false
move, so they are not emitted. Outer strategy functions are substituted
into deeper guards, which keeps every function a circuit over
opposite-kind inputs only. A node's condition extends from block to block
by the children decided since, so extraction is linear in blocks.

Checking builds a miter: the certificate's gates and the matrix, with each
function substituted for its variable, go into one structurally hashed
and-inverter graph. A matrix subformula a grant condition copied becomes the
gate it copied, so the SAT search never has to prove two copies equal; a
goal that folds to a constant needs no search at all. The miter also applies
Brummayer and Biere's local two-level rules (`aiger.TwoLevelCircuit`:
contradiction, idempotence, subsumption and substitution), which see through
one gate to its operands. A function that excludes its partner, as a
Herbrand ``u = -e & ...`` does, then folds ``e & u`` to false, and the
matrix parts it decides fold to what remains. Certificates are built
without those rules. Both graphs keep one gate triple per XOR
(`aiger.Circuit.and_`), so the complement of a parity the matrix spells
apart is the negation of one literal. The XOR rule can leave gates the
caller built for it unused, so a certificate is returned swept of them
(`aiger.Circuit.sweep`) and holds no dead gate.

Both steps encode matrix subformulas with `aiger.encode_formula`, the one
NNF encoder, which the assignment solver shares; the check hands the goal's
cone to its SAT call through `aiger.Circuit.to_cnf`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abstraction import InfluenceMap, compute_influence
from .aiger import (FALSE_LIT, TRUE_LIT, Circuit, TwoLevelCircuit,
                    encode_formula)
from .aiger import negate as aig_not
from .formula import OR, InternalError, QbfProblem, Quantifier, dependencies
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
    influence = compute_influence(problem)
    _check_interface(influence, node, scope_index)
    condition = _grant_conditions(circuit, problem, influence, var_lit)
    circuit.add_output("condition", condition(node, scope_index))
    return circuit.sweep()


def _check_interface(influence: InfluenceMap, node: int, k: int) -> None:
    if node not in influence.min_scope or not influence.straddles(node, k - 1):
        raise InternalError(
            f"node {node} is not on the incoming interface of block {k}")


def _grant_conditions(circuit: Circuit, problem: QbfProblem,
                      influence: InfluenceMap, var_lit: dict[int, int]):
    """Return ``condition(node, k)``, the literal of an interface node's
    grant condition at block ``k``: the join, by the node's connective, of
    the children decided before k, negated at a universal block. A node's
    join grows from block to block over its children in `(max_scope,
    position)` order (a stable sort), so calls come in nondecreasing block
    order; a condition at block k reads only `var_lit` entries final by
    then, so one memo of encoded classes serves every block."""
    arena, max_scope = problem.arena, influence.max_scope
    encoded: dict[int, int] = {}
    # node -> (children in order, how many are joined, their join)
    running: dict[int, tuple[list[int], int, int]] = {}

    def condition(node: int, k: int) -> int:
        # an OR is joined as the negated AND of its negated children
        flip = arena.kinds[node] == OR
        order, joined, base = running.get(node) or (sorted(
            arena.payload[node], key=max_scope.__getitem__), 0, TRUE_LIT)
        while joined < len(order) and max_scope[order[joined]] < k:
            base = circuit.and_(base, flip ^ encode_formula(
                circuit, arena, order[joined], var_lit, encoded))
            joined += 1
        running[node] = order, joined, base
        universal = problem.prefix[k - 1].quantifier is Quantifier.FORALL
        return base ^ (flip != universal)

    return condition


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
    ``original``, and its influence map, if it carries one, is reused.
    Inputs and outputs follow the original prefix: a variable preprocessing
    eliminated becomes a constant output valued per ``eliminated``.
    """
    func_q = Quantifier.EXISTS if value else Quantifier.FORALL
    names = original.var_names
    circuit = Circuit()
    circuit.kind = "skolem" if value else "herbrand"
    var_lit = {v: circuit.add_input(names[v]) for v in original.all_vars()
               if original.quantifier_of(v) is not func_q}

    if reduced.matrix_constant() is None:
        influence = trace.influence or compute_influence(reduced)
        condition = _grant_conditions(circuit, reduced, influence, var_lit)
        pairs_at = trace.by_scope()
        for k, scope in enumerate(reduced.prefix, start=1):
            if scope.quantifier is not func_q:
                continue
            pairs = pairs_at.get(k, [])
            for pair in pairs:
                for n in pair.nodes:
                    _check_interface(influence, n, k)
            # pairs after the last true move restate the all-false default
            while pairs and not pairs[-1].true_vars:
                pairs.pop()
            fires: list[tuple[ProofPair, int]] = []
            earlier = FALSE_LIT
            for i, pair in enumerate(pairs, start=1):
                guard = circuit.and_many(condition(n, k)
                                         for n in sorted(pair.nodes))
                if pair.true_vars:
                    fires.append((pair, circuit.and_(guard, aig_not(earlier))))
                if i < len(pairs):
                    earlier = circuit.or_(earlier, guard)
            for v in scope.vars:
                var_lit[v] = circuit.or_many(
                    fire for pair, fire in fires if v in pair.true_vars)

    # var_lit holds every move the trace decides; the rest are constants
    for v in original.all_vars():
        if original.quantifier_of(v) is func_q:
            lit = var_lit.get(v)
            if lit is None:
                lit = TRUE_LIT if eliminated.get(v) else FALSE_LIT
            circuit.add_output(names[v], lit)
    return circuit.sweep()


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
    (Herbrand) - must be unsatisfiable. The certificate's gates are
    rebuilt, not copied: the miter folds constants, hashes gates and XORs
    structurally and applies the two-level rules of `aiger.TwoLevelCircuit`,
    each of which holds for any operands. Only the miter uses the two-level
    rules; certificates are plain `aiger.Circuit`s. A goal
    that folds to a constant is decided at once, any other by one SAT call
    over the goal's cone. An invalid certificate comes with a
    counterexample: values of the opposite-kind variables, in variable
    order, under which the strategy loses; inputs outside the goal's cone
    read False.
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

    miter = TwoLevelCircuit()
    lit_of = [FALSE_LIT] * (circuit.max_var + 1)  # certificate var -> literal
    var_lit: dict[int, int] = {}
    for name in circuit.inputs:
        lit_of[circuit.input_lit(name) // 2] = var_lit[var_of_name[name]] = \
            miter.add_input(name)
    # free matrix variables are inputs too, and inputs precede every gate
    for v in sorted(problem.matrix_vars - var_lit.keys() - set(func_vars)):
        var_lit[v] = miter.add_input(names[v])
    for lhs, a, b in circuit.gates:
        lit_of[lhs // 2] = miter.and_(lit_of[a // 2] ^ (a & 1),
                                      lit_of[b // 2] ^ (b & 1))
    for name, lit in circuit.outputs:
        var_lit[var_of_name[name]] = lit_of[lit // 2] ^ (lit & 1)
    matrix = encode_formula(miter, problem.arena, problem.matrix, var_lit, {})
    goal = aig_not(matrix) if func_q is Quantifier.EXISTS else matrix
    if goal == FALSE_LIT:
        return VerifyResult("valid")

    value = {}  # miter variable -> value in the counterexample
    if goal != TRUE_LIT:
        solver = Solver()
        sat_var = miter.to_cnf(solver, goal)
        top = sat_var[goal // 2]
        solver.add_clause([-top if goal & 1 else top])
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
