"""Game-style solving of prenex NNF problems.

Two algorithms share the same shape: each quantifier block plays rounds
against the blocks inside it, and a round ends when one side's SAT query
comes back unsatisfiable. The assumption-literal core of that query tells
the caller which part of its offer the loss actually relied on, so the
caller can refine with a single clause instead of enumerating assignments.
Both keep the blocks that wait on an inner one on an explicit stack, so a
prefix of any depth solves at Python's default recursion limit.

``solve_assignment`` plays rounds over full variable assignments - each block
proposes values for its own variables given the outer ones. It is simple and
serves as a baseline, but a block may need exponentially many proposals.

``solve_abstraction`` plays rounds over block interfaces: a block only
decides its own variables plus which interface subformulas it claims versus
delegates inward, using the per-block abstractions of
:mod:`qbfkit.abstraction`. Confirmed wins are recorded as proof pairs - which
granted interface nodes and which block variables the win relied on - from
which :mod:`qbfkit.certify` can extract strategy functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .abstraction import ScopeAbstraction, compute_influence
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
    """Proof pairs in the order the solver confirmed them."""

    pairs: list = field(default_factory=list)

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
    influence = compute_influence(problem)
    innermost_used = influence.max_scope[problem.matrix]
    blocks: dict[int, ScopeAbstraction] = {}

    def confirm_win(block: ScopeAbstraction, k: int, x_values: dict,
                    granted: dict) -> dict:
        """Ask the challenger side to refute the round; UNSAT is the proof."""
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

    # The blocks waiting on an inner one, outermost first, each with the
    # grants and the round it delegated: an explicit stack, so the depth of
    # the prefix is not bounded by Python's recursion limit.
    waiting: list[tuple[int, dict, dict, dict]] = []
    k, granted = 1, {}
    while True:
        block = blocks.get(k)
        if block is None:
            block = blocks[k] = ScopeAbstraction.build(problem, k, influence)
        exists_here = block.quantifier is Quantifier.EXISTS
        stats.sat_queries[k - 1] += 1
        result = block.theta.solve(block.theta_assumptions(granted))
        if not result.sat:
            outcome = (not exists_here), block.witness_from_core(
                result.failed, granted)
        else:
            x_values = block.x_assignment(result.model)
            if k < nblocks and k < innermost_used:
                claims = block.exposed_claims(
                    block.maximize_claims(result.model))
                waiting.append((k, granted, x_values, claims))
                k, granted = k + 1, {n: not claims[n] for n in block.exposed}
                continue
            outcome = exists_here, confirm_win(block, k, x_values, granted)
        # hand the outcome outward until some block refines and plays again
        while waiting:
            k, granted, x_values, claims = waiting.pop()
            block = blocks[k]
            exists_here = block.quantifier is Quantifier.EXISTS
            inner_exists_wins, inner_witness = outcome
            if inner_exists_wins == exists_here:
                # the delegation worked out; teach the challenger side the
                # inner outcome, then confirm the whole round on it
                block.refine_dual(inner_witness)
                outcome = exists_here, confirm_win(block, k, x_values, granted)
                continue
            relied = sorted(n for n, v in inner_witness.items() if v)
            if any(claims[n] for n in relied):
                raise InternalError(
                    f"refinement at block {k} would not make progress")
            block.refine(relied)
            break
        else:
            break  # no block is left waiting: the outcome is block 1's

    value = outcome[0]
    for k, block in blocks.items():
        stats.refinements[k - 1] = block.refinement_count
    stats.wall_time = time.perf_counter() - t0
    return value, trace, stats


def solve_assignment(problem: QbfProblem):
    """Solve by playing rounds over full variable assignments.

    Returns ``(value, stats)``; this algorithm produces no proof trace.
    """
    t0 = time.perf_counter()
    nblocks = problem.scope_count
    stats = SolveStats([0] * nblocks, [0] * nblocks)
    constant = problem.matrix_constant()
    if constant is not None:
        stats.wall_time = time.perf_counter() - t0
        return constant, stats
    # the matrix as an and-inverter graph, one input per prefix variable;
    # the graph folds constants and tautologies such as v | -v as it is
    # built, and a root that folds to a constant is the verdict
    circuit = Circuit()
    input_lit = {v: circuit.add_input(str(v)) for v in problem.all_vars()}
    root = encode_formula(circuit, problem.arena, problem.matrix, input_lit,
                          {})
    if root in (FALSE_LIT, TRUE_LIT):
        stats.wall_time = time.perf_counter() - t0
        return root == TRUE_LIT, stats

    # Every solver encodes the root's cone alike, its inputs first in prefix
    # order, so outer assignments can be assumed directly; a variable outside
    # the cone is in no clause, so it gets no number and no value. Each block
    # asserts the root as its owner needs it, the challenger (last) as the
    # innermost block's opponent does.
    owners = [scope.quantifier for scope in problem.prefix]
    owners.append(owners[-1].complement)
    solvers = []
    for owner in owners:
        solver = Solver()
        sat_var = circuit.to_cnf(solver, root)
        top = -sat_var[root // 2] if root & 1 else sat_var[root // 2]
        solver.add_clause([top if owner is Quantifier.EXISTS else -top])
        solvers.append(solver)
    challenger = solvers.pop()
    var_map = {v: sat_var[lit // 2] for v, lit in input_lit.items()
               if lit // 2 in sat_var}
    var_of = {sv: v for v, sv in var_map.items()}

    def assumption_lits(values: dict) -> list[int]:
        return [var_map[v] if val else -var_map[v]
                for v, val in sorted(values.items())]

    def core_witness(core, values: dict) -> dict:
        return {var_of[abs(lit)]: values[var_of[abs(lit)]] for lit in core}

    # the blocks waiting on an inner one, each with its outer assignment; a
    # block's outcome names only variables of the blocks outside it
    waiting: list[tuple[int, dict]] = []
    k, alpha = 1, {}
    while True:
        scope = problem.prefix[k - 1]
        exists_here = scope.quantifier is Quantifier.EXISTS
        stats.sat_queries[k - 1] += 1
        result = solvers[k - 1].solve(assumption_lits(alpha))
        if not result.sat:
            outcome = (not exists_here), core_witness(result.failed, alpha)
        else:
            beta = dict(alpha)
            for v in scope.vars:
                if v in var_map:
                    beta[v] = bool(result.model[var_map[v]])
            if k < nblocks:
                waiting.append((k, alpha))
                k, alpha = k + 1, beta
                continue
            stats.sat_queries[k - 1] += 1
            refute = challenger.solve(assumption_lits(beta))
            if refute.sat:
                raise InternalError("matrix and its negation both satisfied")
            witness = core_witness(refute.failed, beta)
            outcome = exists_here, {v: b for v, b in witness.items()
                                    if v in alpha}
        # hand the outcome outward until some block refines and plays again
        while waiting:
            k, alpha = waiting.pop()
            exists_here = problem.prefix[k - 1].quantifier is Quantifier.EXISTS
            inner_exists_wins, inner_witness = outcome
            if inner_exists_wins == exists_here:
                outcome = exists_here, {v: b for v, b in inner_witness.items()
                                        if v in alpha}
                continue
            solvers[k - 1].add_clause(
                [-var_map[v] if b else var_map[v]
                 for v, b in sorted(inner_witness.items())])
            stats.refinements[k - 1] += 1
            break
        else:
            break  # no block is left waiting: the outcome is block 1's

    value = outcome[0]
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
