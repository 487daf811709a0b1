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
before its parent, and `maximize_claims` to settle child claims in the one
pass before the claims of their parents.

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
  round decline the root claim, and an exposed subformula may be claimed
  outright, satisfying it either way becoming the inner rounds' burden.

Only claims actually referenced (from the matrix-level clauses, from other
constraints, or exposed on the outgoing interface) get their constraints
emitted.

A root disjunct that lies wholly inside block k (its `min_scope` is past k)
gets no claim and leaves the block without a root clause. Its claim would
be a pure literal of that clause: every child of the disjunct is above k,
so its constraints at k are empty (it is a conjunction there, because
`compute_influence` rejects a node whose child has its own connective), it
is not exposed, and no other clause names it. A pure literal satisfies the
clause it is in, so the clause and the literal go together; this is the
simplest case of blocked-clause elimination. The clause's other items keep
their claims and their order, so every other variable and clause stays as
it was. The search does not change either: the dropped variables occur in
no other clause, so they never propagate into or conflict with any other
variable, and the models restricted to the other variables, the cores, the
refinements and the proof pairs are the same. Without the rule, a block
allocated one claim per root disjunct that only inner blocks decide, a
number that on the expansion-hard family grows with the blocks inside it.

A block visits only the children its clauses name. `InfluenceMap` indexes
every node's children by `max_scope`, so at block k a constraint reads the
children decided at k and the first one decided below k, which stands for
all of them, merged in payload order; the root clause also reads the
root's exposed children and its first literal above k. A block's work is
therefore proportional to its interface and to the nodes decided at it,
not to the size of the matrix.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass

from .formula import (AND, LIT, OR, InternalError, QbfProblem, Quantifier,
                      subformulas)
from .sat import Solver


@dataclass(frozen=True)
class InfluenceMap:
    """Innermost and outermost block index touched by every subformula, the
    interface of every boundary, and the children of every node indexed by
    the block that decides them.

    `interface[k]` lists the nodes straddling boundary k|k+1 in preorder of
    first visits, each once however many parents it has; `interface[0]` and
    `interface[scope_count]` are empty.

    Children are payload positions. `at[n][s]` lists, ascending, those of
    node `n` whose `max_scope` is `s`; `falls[n]` holds a pair
    `(max_scope, position)` wherever the running minimum of `max_scope`
    over the payload of `n` falls, so its first pair below k names the first
    child decided before block k. The matrix root has three more entries,
    read only where the root is a disjunction: `root_slot` maps each root
    child to its position, `root_literals` holds `(max_scope, position)`
    wherever the running maximum over the root's literal children rises,
    and `inner_until` is the largest `min_scope` of a non-literal root child
    (0 if there is none): at every block before it, some root disjunct is
    decided by inner blocks only.
    """

    min_scope: dict[int, int]
    max_scope: dict[int, int]
    interface: tuple[tuple[int, ...], ...]
    at: dict[int, dict[int, list[int]]]
    falls: dict[int, list[tuple[int, int]]]
    root_slot: dict[int, int]
    root_literals: list[tuple[int, int]]
    inner_until: int

    def straddles(self, node: int, boundary: int) -> bool:
        return self.min_scope[node] <= boundary < self.max_scope[node]

    def visible(self, node: int, k: int) -> list[int]:
        """Positions of the children of `node` whose items block k emits:
        every child decided at k and the first one decided below k, which
        stands for all of them, in payload order."""
        slots = list(self.at[node].get(k, ()))
        falls = self.falls[node]
        j = bisect_right(falls, -k, key=lambda fall: -fall[0])
        if j < len(falls):
            insort(slots, falls[j][1])
        return slots

    def root_disjuncts(self, root: int, k: int) -> list[int]:
        """Positions of the root's children that name an item of the root
        clause at block k: the visible ones, the ones exposed at k and the
        first literal decided by inner blocks, in payload order."""
        slots = set(self.visible(root, k))
        slots.update(self.root_slot[c] for c in self.interface[k]
                     if c in self.root_slot)
        j = bisect_right(self.root_literals, k, key=lambda rise: rise[0])
        if j < len(self.root_literals):
            slots.add(self.root_literals[j][1])
        return sorted(slots)


def compute_influence(problem: QbfProblem) -> InfluenceMap:
    arena = problem.arena
    if problem.matrix_constant() is not None:
        raise ValueError("a constant matrix has no influence structure")
    kinds, payload = arena.kinds, arena.payload
    preorder = subformulas(arena, problem.matrix)
    mins: dict[int, int] = {}
    maxs: dict[int, int] = {}
    at: dict[int, dict[int, list[int]]] = {}
    falls: dict[int, list[tuple[int, int]]] = {}
    for n in sorted(preorder):
        if kinds[n] == LIT:
            mins[n] = maxs[n] = problem.var_scope[abs(payload[n])]
            continue
        kids = payload[n]
        groups: dict[int, list[int]] = {}
        drops: list[tuple[int, int]] = []
        for i, c in enumerate(kids):
            if kinds[c] == kinds[n]:
                raise InternalError("nested same-connective node")
            s = maxs[c]
            groups.setdefault(s, []).append(i)
            if not drops or s < drops[-1][0]:
                drops.append((s, i))
        mins[n] = min(mins[c] for c in kids)
        maxs[n] = max(groups)
        at[n], falls[n] = groups, drops
    interface: list[list[int]] = [[] for _ in range(problem.scope_count + 1)]
    for n in preorder:
        for k in range(mins[n], maxs[n]):
            interface[k].append(n)
    root = problem.matrix
    root_slot: dict[int, int] = {}
    root_literals: list[tuple[int, int]] = []
    inner_until = 0
    for i, c in enumerate(payload[root] if kinds[root] != LIT else ()):
        root_slot[c] = i
        if kinds[c] != LIT:
            inner_until = max(inner_until, mins[c])
        elif not root_literals or maxs[c] > root_literals[-1][0]:
            root_literals.append((maxs[c], i))
    return InfluenceMap(mins, maxs, tuple(map(tuple, interface)), at, falls,
                        root_slot, root_literals, inner_until)


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
        influence = self.influence
        maxs = influence.max_scope

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

        def child_item(parent: int, child: int) -> int:
            """The literal a child at or below k contributes to its parent's
            constraint."""
            if maxs[child] < k:
                return outer_ref(parent)
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
            kids = payload[root]
            items: list[int] = []
            for c in (kids[i] for i in influence.root_disjuncts(root, k)):
                if maxs[c] <= k:
                    items.append(child_item(root, c))
                elif kinds[c] == LIT:
                    # an inner literal lets the round decline the root claim
                    items.append(-self._claim_var(root))
                    need(root)
                else:
                    # an exposed disjunct may win the matrix, even though
                    # inner blocks still have to finish it
                    items.append(self._claim_var(c))
                    need(c)
            # a disjunct that inner blocks alone decide would be a pure
            # literal of this clause, with no other clause naming it
            if k >= influence.inner_until:
                add(items)

        for n in self.exposed:
            need(n)

        # constraints of every referenced claim
        i = 0
        while i < len(needed):
            n = needed[i]
            i += 1
            b = self._claim_var(n)
            kids = payload[n]
            items = [child_item(n, kids[j]) for j in influence.visible(n, k)]
            if eff(kinds[n]) == AND:
                for item in items:
                    add([-b, item])
            else:
                add([-b, *items])

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

        Works on a copy of a satisfying assignment, in one pass by ascending
        node id. One pass is enough: a claim occurs negated only in its own
        constraint clauses and in the root clause, whose other claim
        literals are claims of lower node ids (children come first), and
        refinement clauses hold only positive claims. So whether a claim can
        rise depends only on the claims visited before it. The result is
        re-checked to still satisfy every clause.
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
            return model[abs(lit)] == (lit > 0)

        for _, sv in sorted(self.claim.items()):
            if model[sv] == 0 and all(
                    any(satisfied(l) for l in cl if l != -sv)
                    for cl in self._neg_claim_occ[sv]):
                model[sv] = 1
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
