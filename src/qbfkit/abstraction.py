"""Scope-wise SAT abstractions of a prenex NNF problem.

Each quantifier block gets a pair of incremental SAT instances over a shared
variable numbering:

* the claim side encodes what the block's owner must achieve - the matrix for
  an existential block, its negation for a universal one - abstracting away
  everything decided by inner blocks,
* the challenger side encodes the opposite polarity and is used to extract,
  from an unsatisfiable core, which delegations and block variables a winning
  round actually relied on.

Subformulas whose variables lie on both sides of a block boundary are the
interface of that boundary. `compute_influence` lists the interface of
every boundary in one walk of the matrix, and each block reads its incoming
and outgoing interface from that table. A claim variable (`claim[n]`) states
that the round being built keeps node `n` alive; an outer variable
(`outer_sat[n]`) states that the outer rounds already took care of the part
of `n` they can see. Interface literals are the only channel between blocks:
a block receives assumptions over the incoming interface and exposes claims
over the outgoing one.

Claim, outer and constraint variables name arena nodes, not occurrences of
them. The matrix is a DAG, and a node reached from several parents (a QCIR
gate shared by name) gets one claim variable, one outer variable and one set
of constraints per block. That is sound because a node's value, and the part
of it each block can see, depend only on its variables, never on the parent
it is reached from: the copies an unrolled tree would hold get identical
constraints, so one variable stands for all of them, and a grant, claim or
refinement naming the node means the same thing wherever it occurs. The
same argument covers copies that preprocessing merged into one node because
they are structurally equal: they have equal values under every assignment
and equal `min_scope` and `max_scope`, so they too would get identical
constraints.
Children are created before their parents, so ascending node ids are a
topological order: `compute_influence` relies on it to see every child
before its parent, and `maximize_claims` to raise child claims before the
claims of their parents.

The encoding walks the matrix with the block's polarity applied on the fly,
so node ids are stable across blocks and polarities. One rule places every
child at block k, by its `max_scope`, the innermost block it reads (for a
literal, its variable's block):

* below k, the child is decided by outer blocks and folds into the parent's
  outer variable;
* at k, a literal becomes a SAT literal and a subformula gets a claim
  variable;
* above k, the child is left to inner blocks and is invisible to claim
  constraints. Only the root disjunction names it: an inner literal lets the
  round decline the root claim, and an inner subformula may be claimed
  outright, satisfying it either way becoming the inner rounds' burden.

Only claims actually referenced (from the matrix-level clauses, from other
constraints, or exposed on the outgoing interface) get their constraints
emitted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (AND, LIT, OR, InternalError, QbfProblem, Quantifier,
                      subformulas)
from .sat import Solver


@dataclass(frozen=True)
class InfluenceMap:
    """Innermost and outermost block index touched by every subformula, and
    the interface of every boundary.

    `interface[k]` lists the nodes straddling boundary k|k+1 in preorder of
    first visits, each once however many parents it has; `interface[0]` and
    `interface[scope_count]` are empty.
    """

    min_scope: dict[int, int]
    max_scope: dict[int, int]
    interface: tuple[tuple[int, ...], ...]

    def straddles(self, node: int, boundary: int) -> bool:
        return self.min_scope[node] <= boundary < self.max_scope[node]


def compute_influence(problem: QbfProblem) -> InfluenceMap:
    arena = problem.arena
    if problem.matrix_constant() is not None:
        raise ValueError("a constant matrix has no influence structure")
    kinds, payload = arena.kinds, arena.payload
    preorder = subformulas(arena, problem.matrix)
    mins: dict[int, int] = {}
    maxs: dict[int, int] = {}
    for n in sorted(preorder):
        if kinds[n] == LIT:
            s = problem.var_scope[abs(payload[n])]
            mins[n] = maxs[n] = s
        else:
            kids = payload[n]
            mins[n] = min(mins[c] for c in kids)
            maxs[n] = max(maxs[c] for c in kids)
    interface: list[list[int]] = [[] for _ in range(problem.scope_count + 1)]
    for n in preorder:
        for k in range(mins[n], maxs[n]):
            interface[k].append(n)
    return InfluenceMap(mins, maxs, tuple(map(tuple, interface)))


class ScopeAbstraction:
    """The claim/challenger SAT pair of one quantifier block.

    Both solvers number their variables alike. SAT variable `sv` is block
    variable `role_key[sv]` when `role_tag[sv]` is `"var"`, the grant of
    incoming node `role_key[sv]` when it is `"outer"`, and the claim of node
    `role_key[sv]` when it is `"claim"`; entry 0 is unused. Two flat lists,
    not one of pairs: a block allocates no container per SAT variable, which
    would move Python's full garbage collections to other points of a solve.
    """

    def __init__(self, problem: QbfProblem, scope_index: int,
                 influence: InfluenceMap):
        self.problem = problem
        self.scope_index = scope_index
        self.quantifier = problem.prefix[scope_index - 1].quantifier
        self.influence = influence
        # nodes granted by outer blocks, and nodes this block may delegate inward
        self.incoming = influence.interface[scope_index - 1]
        self.exposed = influence.interface[scope_index]
        self.theta = Solver()
        self.dual = Solver()
        self.role_tag: list[str] = [""]
        self.role_key: list[int] = [0]
        self.x_var: dict[int, int] = {}
        self.outer_sat: dict[int, int] = {}
        self.claim: dict[int, int] = {}
        self.refinement_count = 0
        self._exposed_set = set(self.exposed)
        self._neg_claim_occ: dict[int, list[tuple[int, ...]]] | None = None

        for v in problem.prefix[scope_index - 1].vars:
            self.x_var[v] = self._fresh("var", v)
        for n in self.incoming:
            self.outer_sat[n] = self._fresh("outer", n)
        for n in self.exposed:
            self._claim_var(n)
        negated = self.quantifier is Quantifier.FORALL
        self._emit(negated, self.theta)
        self._emit(not negated, self.dual)

    @classmethod
    def build(cls, problem: QbfProblem, scope_index: int,
              influence: InfluenceMap | None = None) -> "ScopeAbstraction":
        return cls(problem, scope_index, influence or compute_influence(problem))

    # ------------------------------------------------------------------
    # variable management (both solvers allocate in lockstep)

    def _fresh(self, tag: str, key: int) -> int:
        a = self.theta.fresh_var()
        b = self.dual.fresh_var()
        if a != b:
            raise InternalError("solver variable numbering diverged")
        self.role_tag.append(tag)
        self.role_key.append(key)
        return a

    def _claim_var(self, node: int) -> int:
        sv = self.claim.get(node)
        if sv is None:
            sv = self._fresh("claim", node)
            self.claim[node] = sv
        return sv

    # ------------------------------------------------------------------
    # encoding

    def _emit(self, negated: bool, solver: Solver) -> None:
        problem, k = self.problem, self.scope_index
        arena = problem.arena
        kinds, payload = arena.kinds, arena.payload
        maxs = self.influence.max_scope

        def eff(kind: str) -> str:
            if not negated or kind == LIT:
                return kind
            return OR if kind == AND else AND

        def current_lit(lit: int) -> int:
            if negated:
                lit = -lit
            sv = self.x_var[abs(lit)]
            return sv if lit > 0 else -sv

        def outer_ref(node: int) -> int:
            sv = self.outer_sat.get(node)
            if sv is None:
                raise InternalError(
                    f"node {node} folds outward at block {k} but is not on "
                    "the incoming interface")
            return sv

        seen: set[tuple[int, ...]] = set()

        def add(lits) -> None:
            lits = list(dict.fromkeys(lits))
            key = tuple(sorted(lits))
            if key in seen:
                return
            seen.add(key)
            solver.add_clause(lits)

        needed: list[int] = []
        queued: set[int] = set()

        def need(node: int) -> None:
            if node not in queued:
                queued.add(node)
                needed.append(node)

        def child_item(parent: int, child: int) -> int | None:
            """The literal a child contributes to its parent's constraint."""
            s = maxs[child]
            if s < k:
                return outer_ref(parent)
            if s > k:
                return None  # decided by inner blocks only: invisible here
            if kinds[child] == LIT:
                return current_lit(payload[child])
            need(child)
            return self._claim_var(child)

        # matrix-level clauses: how this block's owner can win the round
        root = problem.matrix
        rkind = eff(kinds[root])
        if rkind == LIT:
            if maxs[root] < k:
                raise InternalError(f"block {k} lies past the matrix content")
            add([current_lit(payload[root]) if maxs[root] == k
                 else -self._claim_var(root)])
        elif rkind == AND:
            add([self._claim_var(root)])
            need(root)
        else:
            items: list[int] = []
            for c in payload[root]:
                if maxs[c] <= k:
                    items.append(child_item(root, c))
                elif kinds[c] == LIT:
                    # an inner literal lets the round decline the root claim
                    items.append(-self._claim_var(root))
                    need(root)
                else:
                    if eff(kinds[c]) == OR:
                        raise InternalError("nested same-connective node")
                    # any disjunct may win the matrix, even one that inner
                    # blocks still have to finish
                    items.append(self._claim_var(c))
                    need(c)
            add(items)

        for n in self.exposed:
            need(n)

        # constraints of every referenced claim
        i = 0
        while i < len(needed):
            n = needed[i]
            i += 1
            b = self._claim_var(n)
            if eff(kinds[n]) == AND:
                for c in payload[n]:
                    item = child_item(n, c)
                    if item is not None:
                        add([-b, item])
            else:
                clause = [-b]
                for c in payload[n]:
                    item = child_item(n, c)
                    if item is not None:
                        clause.append(item)
                add(clause)

    # ------------------------------------------------------------------
    # assumptions and model views

    def theta_assumptions(self, granted: dict[int, bool]) -> list[int]:
        """Assumption literals for the claim side: one per incoming node."""
        if set(granted) != set(self.incoming):
            raise InternalError("incoming interface assignment is not total")
        return [self.outer_sat[n] if granted[n] else -self.outer_sat[n]
                for n in self.incoming]

    def dual_assumptions(self, x_values: dict[int, bool],
                         granted: dict[int, bool]) -> list[int]:
        """Challenger assumptions: block variables plus complemented grants."""
        lits = [sv if x_values[v] else -sv for v, sv in self.x_var.items()]
        lits += [-self.outer_sat[n] if granted[n] else self.outer_sat[n]
                 for n in self.incoming]
        return lits

    def x_assignment(self, model: list[int]) -> dict[int, bool]:
        return {v: bool(model[sv]) for v, sv in self.x_var.items()}

    def exposed_claims(self, model: list[int]) -> dict[int, bool]:
        return {n: bool(model[self.claim[n]]) for n in self.exposed}

    def witness_from_core(self, core, granted: dict[int, bool]) -> dict[int, bool]:
        """Incoming-interface part of an unsat core, valued as granted."""
        out: dict[int, bool] = {}
        for lit in core:
            if self.role_tag[abs(lit)] == "outer":
                n = self.role_key[abs(lit)]
                out[n] = granted[n]
        return out

    # ------------------------------------------------------------------
    # claim maximization (keeps delegation minimal when translating inward)

    def maximize_claims(self, model: list[int]) -> list[int]:
        """Raise claim variables as far as the claim side's clauses allow.

        Works on a copy of a satisfying assignment; child claims are visited
        first (arena ids order children before parents), and sweeps repeat to
        a fixpoint. The result is re-checked to still satisfy every clause.
        """
        model = list(model)
        if self._neg_claim_occ is None:
            occ: dict[int, list[tuple[int, ...]]] = {sv: [] for sv in self.claim.values()}
            for clause in self.theta.db:
                for lit in clause:
                    if lit < 0 and -lit in occ:
                        occ[-lit].append(clause)
            self._neg_claim_occ = occ

        def satisfied(lit: int) -> bool:
            val = model[abs(lit)]
            return val == 1 if lit > 0 else val == 0

        ordered = sorted(self.claim.items())
        changed = True
        while changed:
            changed = False
            for node, sv in ordered:
                if model[sv] == 1:
                    continue
                if all(any(satisfied(l) for l in cl if l != -sv)
                       for cl in self._neg_claim_occ[sv]):
                    model[sv] = 1
                    changed = True
        for clause in self.theta.db:
            if not any(satisfied(l) for l in clause):
                raise InternalError("claim maximization broke a clause")
        return model

    # ------------------------------------------------------------------
    # refinement

    def refine(self, nodes) -> None:
        """Exclude the current exposed-claim assignment: some node must be claimed."""
        nodes = sorted(set(nodes))
        bad = [n for n in nodes if n not in self._exposed_set]
        if bad:
            raise InternalError(f"refinement names non-interface nodes {bad}")
        if self.refinement_count >= 2 ** len(self.exposed):
            raise InternalError(
                f"block {self.scope_index} exceeded its refinement budget")
        self.theta.add_clause(self.claim[n] for n in nodes)
        self.refinement_count += 1

    def refine_dual(self, witness: dict[int, bool]) -> None:
        """Teach the challenger an inner outcome.

        ``witness`` is the grant reliance of an inner-game win by this
        block's owner. Grants favor the receiving block, so the win persists
        whenever all the witness's denied grants stay denied; the challenger
        escapes only by settling one of those nodes itself.
        """
        bad = [n for n in witness if n not in self._exposed_set]
        if bad:
            raise InternalError(f"refinement names non-interface nodes {bad}")
        self.dual.add_clause(self.claim[n] for n in sorted(witness)
                             if not witness[n])

    # ------------------------------------------------------------------
    # introspection

    def symbolic(self, clauses) -> frozenset:
        """Clauses as sign/role/key triples, independent of SAT numbering."""
        return frozenset(
            frozenset((lit > 0, self.role_tag[abs(lit)],
                       self.role_key[abs(lit)]) for lit in clause)
            for clause in clauses)

    def symbolic_theta(self) -> frozenset:
        return self.symbolic(self.theta.db)

    def symbolic_dual(self) -> frozenset:
        return self.symbolic(self.dual.db)

    def legend(self) -> dict[int, str]:
        names = self.problem.var_names
        return {sv: f"x {names[key]}" if tag == "var" else f"{tag} n{key}"
                for sv, (tag, key) in enumerate(
                    zip(self.role_tag[1:], self.role_key[1:]), start=1)}

    def debug_dump(self) -> str:
        lines = [f"c block {self.scope_index} ({self.quantifier.value})"]
        for sv, label in sorted(self.legend().items()):
            lines.append(f"c {sv} = {label}")
        lines.append("c claim side")
        lines.append(self.theta.to_dimacs().rstrip())
        lines.append("c challenger side")
        lines.append(self.dual.to_dimacs().rstrip())
        return "\n".join(lines) + "\n"
