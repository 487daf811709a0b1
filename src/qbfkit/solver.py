"""Game-style solving of prenex NNF problems.

Both algorithms play one game, driven by ``_play`` over the blocks an
algorithm plays: each of them plays rounds against the ones inside it, and
a round ends when one side's SAT query comes back unsatisfiable. The
assumption-literal core of that query tells the caller which part of its
offer the loss actually relied on, so the caller can refine with a single
clause instead of enumerating assignments. A block the game skips holds no
variable the matrix depends on, so no move of it matters. The loop keeps
the blocks that wait on an inner one on an explicit stack, so a prefix of
any depth solves at Python's default recursion limit. Each algorithm
supplies the blocks it plays and the four moves of a block k:

- ``play``: query block k against the outer blocks' moves, and on a win
  descend to the next block played or, at the innermost one, ``confirm``;
- ``confirm``: refute the round on the challenger side; the core is the
  witness of the round's outcome;
- ``carry``: the inner blocks won block k's round; restate their witness
  for the blocks outside k and hand it outward;
- ``refine``: the inner blocks lost block k's round; exclude what the loss
  relied on, and block k plays again.

``solve_assignment`` plays rounds over full variable assignments - each block
proposes values for its own variables given the outer ones. It plays the
blocks that hold a variable of the matrix's and-inverter graph cone, after
constants and tautologies fold. It is simple and serves as a baseline, but
a block may need exponentially many proposals.

``solve_abstraction`` plays rounds over block interfaces: a block only
decides its own variables plus which interface subformulas it claims versus
delegates inward, using the per-block abstractions of
:mod:`qbfkit.abstraction`. It plays every block from the first to the last
that the matrix reads. Confirmed wins are recorded as proof pairs - which
granted interface nodes and which block variables the win relied on - from
which :mod:`qbfkit.certify` can extract strategy functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .abstraction import InfluenceMap, ScopeAbstraction, compute_influence
from .aiger import FALSE_LIT, TRUE_LIT, Circuit, encode_formula
from .formula import InternalError, QbfProblem, Quantifier
from .sat import Solver


@dataclass(frozen=True)
class ProofPair:
    """One confirmed round win at a block.

    ``nodes`` are the incoming interface subformulas, granted as settled by
    the outer blocks, that the win relied on; ``true_vars`` are the block's
    own variables assigned true in the winning round.
    """

    scope: int
    nodes: frozenset
    true_vars: frozenset


@dataclass
class ProofTrace:
    """Proof pairs in the order the solver confirmed them, and the
    influence map of the problem solved, which certification reuses."""

    pairs: list = field(default_factory=list)
    influence: InfluenceMap | None = field(default=None, repr=False,
                                           compare=False)

    def record(self, pair: ProofPair) -> None:
        self.pairs.append(pair)

    def by_scope(self) -> dict[int, list[ProofPair]]:
        """The pairs grouped by block, each group in confirmation order."""
        groups: dict[int, list[ProofPair]] = {}
        for pair in self.pairs:
            groups.setdefault(pair.scope, []).append(pair)
        return groups


@dataclass
class SolveConfig:
    record_trace: bool = True


@dataclass
class SolveStats:
    sat_queries: list  # per block, outermost first
    refinements: list  # per block, outermost first
    wall_time: float = 0.0

    @property
    def total_iterations(self) -> int:
        return sum(self.sat_queries)


def _play(problem: QbfProblem, blocks, play, confirm, carry, refine) -> bool:
    """Play the game over ``blocks``, an ascending list of block indices;
    return whether the existential side wins. ``play(k, outer, descend)`` is
    ``(True, move, inner)``, or ``(False, witness, None)`` when block k
    loses."""
    exists = [scope.quantifier is Quantifier.EXISTS for scope in problem.prefix]
    # the blocks waiting on an inner one, outermost first, with their rounds
    waiting: list[tuple[int, object, object]] = []
    inner_of = dict(zip(blocks, blocks[1:]))
    k, outer = blocks[0], {}
    while True:
        descend = k in inner_of
        won, move, inner = play(k, outer, descend)
        if not won:
            outcome = not exists[k - 1], move
        elif descend:
            waiting.append((k, outer, move))
            k, outer = inner_of[k], inner
            continue
        else:
            outcome = exists[k - 1], confirm(k, outer, move)
        # hand the outcome outward until some block refines and plays again
        while waiting:
            k, outer, move = waiting.pop()
            inner_exists_wins, witness = outcome
            if inner_exists_wins == exists[k - 1]:
                outcome = exists[k - 1], carry(k, outer, move, witness)
                continue
            refine(k, outer, move, witness)
            break
        else:
            return outcome[0]  # no block is left waiting: the outermost's


def solve_abstraction(problem: QbfProblem, config: SolveConfig | None = None):
    """Solve via interface abstractions.

    Returns ``(value, trace, stats)`` where ``value`` is the truth of the
    problem, ``trace`` collects the confirmed proof pairs, and ``stats``
    counts SAT queries and refinements per block.
    """
    config = config or SolveConfig()
    t0 = time.perf_counter()
    trace = ProofTrace()
    nblocks = problem.scope_count
    stats = SolveStats([0] * nblocks, [0] * nblocks)
    constant = problem.matrix_constant()
    if constant is not None:
        stats.wall_time = time.perf_counter() - t0
        return constant, trace, stats
    influence = trace.influence = compute_influence(problem)
    blocks: dict[int, ScopeAbstraction] = {}

    def play(k: int, granted: dict, descend: bool):
        block = blocks.get(k)
        if block is None:
            block = blocks[k] = ScopeAbstraction.build(problem, k, influence)
        stats.sat_queries[k - 1] += 1
        result = block.theta.solve(block.theta_assumptions(granted))
        if not result.sat:
            return False, block.witness_from_core(result.failed, granted), None
        x_values = block.x_assignment(result.model)
        if not descend:
            return True, (x_values, None), None
        claims = block.exposed_claims(block.maximize_claims(result.model))
        inner_granted = {n: not claims[n] for n in block.exposed}
        return True, (x_values, claims), inner_granted

    def confirm(k: int, granted: dict, move) -> dict:
        """Ask the challenger side to refute the round; UNSAT is the proof."""
        block, (x_values, _) = blocks[k], move
        stats.sat_queries[k - 1] += 1
        result = block.dual.solve(block.dual_assumptions(x_values, granted))
        if result.sat:
            raise InternalError(
                f"round at block {k} was confirmed by both sides")
        witness = block.witness_from_core(result.failed, granted)
        if config.record_trace:
            trace.record(ProofPair(
                k,
                frozenset(n for n, v in witness.items() if v),
                frozenset(v for v, val in x_values.items() if val)))
        return witness

    def carry(k: int, granted: dict, move, witness: dict) -> dict:
        # the delegation worked out; teach the challenger side the inner
        # outcome, then confirm the whole round on it
        blocks[k].refine_dual(witness)
        return confirm(k, granted, move)

    def refine(k: int, granted: dict, move, witness: dict) -> None:
        _, claims = move
        relied = sorted(n for n, v in witness.items() if v)
        if any(claims[n] for n in relied):
            raise InternalError(
                f"refinement at block {k} would not make progress")
        blocks[k].refine(relied)
        stats.refinements[k - 1] += 1

    root = problem.matrix
    value = _play(problem, range(influence.min_scope[root],
                                 influence.max_scope[root] + 1),
                  play, confirm, carry, refine)
    stats.wall_time = time.perf_counter() - t0
    return value, trace, stats


def solve_assignment(problem: QbfProblem):
    """Solve by playing rounds over full variable assignments.

    Returns ``(value, stats)``; this algorithm produces no proof trace.
    """
    t0 = time.perf_counter()
    nblocks = problem.scope_count
    stats = SolveStats([0] * nblocks, [0] * nblocks)
    # the matrix as an and-inverter graph, one input per variable it reads;
    # the graph folds constants and tautologies such as v | -v as it is
    # built, and a root that folds to a constant is the verdict
    circuit = Circuit()
    input_lit = {v: circuit.add_input(str(v)) for v in problem.all_vars()
                 if v in problem.matrix_vars}
    root = encode_formula(circuit, problem.arena, problem.matrix, input_lit,
                          {})
    if root in (FALSE_LIT, TRUE_LIT):
        stats.wall_time = time.perf_counter() - t0
        return root == TRUE_LIT, stats

    # Only the blocks holding a variable of the root's cone play, each with
    # a solver. Every solver encodes the cone alike, its inputs first in
    # prefix order, so outer assignments can be assumed directly; a variable
    # outside the cone is in no clause, so it gets no number and no value.
    # Each block asserts the root as its owner needs it, the challenger
    # (last) as the innermost played block's opponent does.
    cone = set(circuit.cone(root))
    played = sorted({problem.var_scope[v] for v, lit in input_lit.items()
                     if lit // 2 in cone})
    owners = [problem.prefix[k - 1].quantifier for k in played]
    owners.append(owners[-1].complement)
    solvers = []
    for owner in owners:
        solver = Solver()
        sat_var = circuit.to_cnf(solver, root)
        top = -sat_var[root // 2] if root & 1 else sat_var[root // 2]
        solver.add_clause([top if owner is Quantifier.EXISTS else -top])
        solvers.append(solver)
    challenger = solvers.pop()
    solver_of = dict(zip(played, solvers))
    var_map = {v: sat_var[lit // 2] for v, lit in input_lit.items()
               if lit // 2 in sat_var}
    var_of = {sv: v for v, sv in var_map.items()}

    def assumption_lits(values: dict) -> list[int]:
        return [var_map[v] if val else -var_map[v]
                for v, val in sorted(values.items())]

    def core_witness(core, values: dict) -> dict:
        return {var_of[abs(lit)]: values[var_of[abs(lit)]] for lit in core}

    # a block plays its variables on top of the outer assignment alpha; its
    # outcome names only variables of the blocks outside it
    def play(k: int, alpha: dict, descend: bool):
        stats.sat_queries[k - 1] += 1
        result = solver_of[k].solve(assumption_lits(alpha))
        if not result.sat:
            return False, core_witness(result.failed, alpha), None
        beta = dict(alpha)
        for v in problem.prefix[k - 1].vars:
            if v in var_map:
                beta[v] = bool(result.model[var_map[v]])
        return True, beta, beta

    def confirm(k: int, alpha: dict, beta: dict) -> dict:
        stats.sat_queries[k - 1] += 1
        refute = challenger.solve(assumption_lits(beta))
        if refute.sat:
            raise InternalError("matrix and its negation both satisfied")
        return carry(k, alpha, beta, core_witness(refute.failed, beta))

    def carry(k: int, alpha: dict, beta: dict, witness: dict) -> dict:
        return {v: b for v, b in witness.items() if v in alpha}

    def refine(k: int, alpha: dict, beta: dict, witness: dict) -> None:
        solver_of[k].add_clause([-var_map[v] if b else var_map[v]
                                   for v, b in sorted(witness.items())])
        stats.refinements[k - 1] += 1

    value = _play(problem, played, play, confirm, carry, refine)
    stats.wall_time = time.perf_counter() - t0
    return value, stats


def solve(problem: QbfProblem, algorithm: str = "abstraction"):
    """Decide ``problem`` by ``"abstraction"`` or ``"assignment"``, without
    a proof trace; return ``(value, stats)``. Other names are a ValueError."""
    if algorithm == "abstraction":
        value, _, stats = solve_abstraction(problem,
                                            SolveConfig(record_trace=False))
        return value, stats
    if algorithm == "assignment":
        return solve_assignment(problem)
    raise ValueError(f"unknown algorithm {algorithm!r}")
