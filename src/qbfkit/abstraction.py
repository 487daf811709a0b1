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
every boundary, by ascending node id, in one pass over the matrix's nodes,
and each block reads its incoming and outgoing interface from that table.
A claim variable (`claim[n]`) states that the round being built keeps node
`n` alive; an outer variable (`outer_sat[n]`) states that the outer rounds
already took care of the part of `n` they can see. Interface literals are
the only channel between blocks: a block receives assumptions over the
incoming interface and exposes claims over the outgoing one. An outer
variable is allocated when a clause first names it, and a block variable
only if the matrix reads it (`QbfProblem.matrix_vars`), so every SAT
variable of a block occurs in some clause.

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

Two nodes can also be complements without being structurally related: the
QCIR reader spells a negated `xor` as `(a & b) | (-a & -b)`. With a claim
each, CDCL would have to prove such a pair complementary, level by level
along a parity chain. So a block-local node (every leaf decided at one
block k; the root aside, as a block before it may claim it unconstrained)
takes the claim of an earlier block-local complement, negated, which
`compute_influence` finds through an and-inverter graph. That claim is fixed
by block k's variables: a node decided at k is needed at k, as every parent
of it is decided or exposed there and names it, and all its children are
visible, so by induction a true claim literal implies the node's value, and
the pair reads `claim(m) -> m` and `-claim(m) -> -m`. Two claims do no
better: only a node's own constraints name its claim negated, so raising a
block-local claim to the node's value breaks no clause.

Children are created before their parents, so ascending node ids are a
topological order: `compute_influence` relies on it to see every child
before its parent, and `maximize_claims` to settle child claims in the one
pass before the claims of their parents. The prefix alternates
(`QbfProblem.make` merges it), so each block plays against the opposite
player, and the solver plays the blocks from the root's `min_scope` to its
`max_scope`: no block outside them has a variable or an interface.

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

from .aiger import FALSE_LIT, TRUE_LIT, Circuit, encode_formula, negate
from .formula import (AND, LIT, OR, InternalError, QbfProblem, Quantifier,
                      postorder)
from .sat import Solver


@dataclass(frozen=True)
class InfluenceMap:
    """Innermost and outermost block index touched by every subformula, the
    interface of every boundary, and the children of every node indexed by
    the block that decides them.

    `interface[k]` lists the nodes straddling boundary k|k+1 by ascending
    id, each once however many parents it has; `interface[0]` and
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
    decided by inner blocks only. `complement` maps a non-root block-local
    node (`min_scope == max_scope`, not a literal) to the first such node
    of its block whose and-inverter graph literal is its negation, and no
    partner is a key.
    """

    min_scope: dict[int, int]
    max_scope: dict[int, int]
    interface: tuple[tuple[int, ...], ...]
    at: dict[int, dict[int, list[int]]]
    falls: dict[int, list[tuple[int, int]]]
    root_slot: dict[int, int]
    root_literals: list[tuple[int, int]]
    inner_until: int
    complement: dict[int, int]

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
    root = problem.matrix
    mins: dict[int, int] = {}
    maxs: dict[int, int] = {}
    at: dict[int, dict[int, list[int]]] = {}
    falls: dict[int, list[tuple[int, int]]] = {}
    interface: list[list[int]] = [[] for _ in range(problem.scope_count + 1)]
    root_slot: dict[int, int] = {}
    root_literals: list[tuple[int, int]] = []
    inner_until = 0
    # the block-local nodes as an and-inverter graph, in which a node's
    # complement has the negated literal however it is spelled; one input
    # per variable the matrix reads, so a long prefix adds none
    circuit = Circuit()
    var_lit = {v: circuit.add_input(str(v)) for v in problem.all_vars()
               if v in problem.matrix_vars}
    encoded: dict[int, int] = {}
    complement: dict[int, int] = {}
    first: dict[tuple[int, int], int] = {}  # (block, literal) -> node
    for n in sorted(postorder(arena, root)):
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
        lo = mins[n] = min(mins[c] for c in kids)
        hi = maxs[n] = max(groups)
        at[n], falls[n] = groups, drops
        for k in range(lo, hi):
            interface[k].append(n)
        if n == root:
            for i, c in enumerate(kids):
                root_slot[c] = i
                if kinds[c] != LIT:
                    inner_until = max(inner_until, mins[c])
                elif not root_literals or maxs[c] > root_literals[-1][0]:
                    root_literals.append((maxs[c], i))
        elif lo == hi:
            lit = encode_formula(circuit, arena, n, var_lit, encoded)
            if lit in (FALSE_LIT, TRUE_LIT):
                continue
            partner = first.get((lo, negate(lit)))
            if partner is None:
                first.setdefault((lo, lit), n)
            else:
                complement[n] = partner
    return InfluenceMap(mins, maxs, tuple(map(tuple, interface)), at, falls,
                        root_slot, root_literals, inner_until, complement)


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
        # per claim, ascending by node: its clauses less its negated literal
        self._raise_checks: list[tuple[int, list[tuple[int, ...]]]] | None = None

        for v in problem.prefix[scope_index - 1].vars:
            if v in problem.matrix_vars:
                self.x_var[v] = self._fresh("var", v)
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
            partner = self.influence.complement.get(node)
            sv = (-self._claim_var(partner) if partner is not None
                  else self._fresh("claim", node))
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
                if not influence.straddles(node, k - 1):
                    raise InternalError(
                        f"node {node} folds outward at block {k} but is not "
                        "on the incoming interface")
                sv = self.outer_sat[node] = self._fresh("outer", node)
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
        """Claim-side assumptions in interface order, one per incoming node
        a clause names: its outer variable is allocated at that first use."""
        if set(granted) != set(self.incoming):
            raise InternalError("incoming interface assignment is not total")
        return [self.outer_sat[n] if granted[n] else -self.outer_sat[n]
                for n in self.incoming if n in self.outer_sat]

    def dual_assumptions(self, x_values: dict[int, bool],
                         granted: dict[int, bool]) -> list[int]:
        """Challenger assumptions: block variables plus complemented grants."""
        lits = [sv if x_values[v] else -sv for v, sv in self.x_var.items()]
        lits += [-self.outer_sat[n] if granted[n] else self.outer_sat[n]
                 for n in self.incoming if n in self.outer_sat]
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
        node id over the claim variables. One pass is enough: a claim that
        a complementary pair shares is fixed by the block's variables (see
        the module docstring), though it also occurs negated in the clauses
        of its complement's parents. Any other claim occurs negated only in
        its own constraint clauses and in the root clause, whose other claim
        literals are fixed or of lower node ids (children come first), and
        refinement clauses hold only positive claims. So whether a claim can
        rise depends only on the claims visited before it. The result is
        re-checked to still satisfy every clause.
        """
        model = list(model)
        if self._raise_checks is None:
            occ: dict[int, list[tuple[int, ...]]] = {
                sv: [] for sv in self.claim.values()}
            for clause in self.theta.db:
                for lit in clause:
                    if lit < 0 and -lit in occ:
                        occ[-lit].append(tuple(l for l in clause if l != lit))
            self._raise_checks = [(sv, occ[sv])
                                  for _, sv in sorted(self.claim.items())
                                  if sv > 0]
        for sv, rests in self._raise_checks:
            if model[sv]:
                continue
            for rest in rests:
                for lit in rest:
                    if model[lit] if lit > 0 else not model[-lit]:
                        break
                else:
                    break  # -sv is this clause's only true literal
            else:
                model[sv] = 1
        for clause in self.theta.db:
            for lit in clause:
                if model[lit] if lit > 0 else not model[-lit]:
                    break
            else:
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
