"""NNF formula arena, prenex quantifier prefix, and problem structure."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

LIT = "lit"
AND = "and"
OR = "or"
TRUE = "true"
FALSE = "false"

_NEUTRAL = {AND: TRUE, OR: FALSE}
_ABSORBING = {AND: FALSE, OR: TRUE}


class InternalError(Exception):
    """An internal invariant was violated; any result would be untrustworthy."""


class Quantifier(Enum):
    EXISTS = "e"
    FORALL = "a"

    @property
    def complement(self) -> "Quantifier":
        return Quantifier.FORALL if self is Quantifier.EXISTS else Quantifier.EXISTS


class Arena:
    """Append-only store of NNF nodes.

    The matrix is a DAG: a node may be the child of several parents, as a
    QCIR gate shared by name stays one node. Structurally equal subformulas
    built separately are not merged; they stay distinct nodes. A node's
    children always exist before it, so ascending ids are a topological
    order. Constants may exist in the arena but `build` folds them away, so
    they never remain inside a normalized matrix.
    """

    __slots__ = ("kinds", "payload", "shape")

    def __init__(self) -> None:
        self.kinds: list[str] = []
        # literal for "lit" nodes, child tuple for "and"/"or", () for constants
        self.payload: list = []
        self.shape: list[int] = []

    def __len__(self) -> int:
        return len(self.kinds)

    def _add(self, kind: str, payload, shape: int) -> int:
        self.kinds.append(kind)
        self.payload.append(payload)
        self.shape.append(shape)
        return len(self.kinds) - 1

    def lit(self, literal: int) -> int:
        """Create a literal leaf. `literal` is a signed variable id."""
        if literal == 0:
            raise ValueError("literal must be a nonzero signed variable id")
        return self._add(LIT, literal, hash((LIT, literal)))

    def const(self, value: bool) -> int:
        kind = TRUE if value else FALSE
        return self._add(kind, (), hash(kind))

    def build(self, kind: str, children) -> int:
        """Normalizing constructor for And/Or nodes.

        Flattens same-connective children, folds constants, removes
        structurally duplicate children, and collapses trivial arities, so the
        result satisfies the matrix invariants (no constant inside, no nested
        same connective, >= 2 distinct children).
        """
        if kind not in (AND, OR):
            raise ValueError(f"build expects '{AND}' or '{OR}', got {kind!r}")
        neutral, absorbing = _NEUTRAL[kind], _ABSORBING[kind]
        flat: list[int] = []
        for child in children:
            ck = self.kinds[child]
            if ck == kind:
                flat.extend(self.payload[child])
            elif ck == neutral:
                continue
            elif ck == absorbing:
                return child
            else:
                flat.append(child)
        kept: list[int] = []
        by_shape: dict[int, list[int]] = {}
        for child in flat:
            bucket = by_shape.setdefault(self.shape[child], [])
            if any(structural_equal(self, child, self, seen) for seen in bucket):
                continue
            bucket.append(child)
            kept.append(child)
        if not kept:
            return self._add(neutral, (), hash(neutral))
        if len(kept) == 1:
            return kept[0]
        shape = hash((kind, tuple(self.shape[c] for c in kept)))
        return self._add(kind, tuple(kept), shape)


def structural_equal(arena_a: Arena, a: int, arena_b: Arena, b: int,
                     memo: dict | None = None) -> bool:
    """Structural (shape and literal) equality, ignoring node identity.

    `memo` holds the node pairs already compared, so shared descendants are
    compared once per pair, not once per path to them.
    """
    if arena_a is arena_b and a == b:
        return True
    if arena_a.shape[a] != arena_b.shape[b]:
        return False
    ka, kb = arena_a.kinds[a], arena_b.kinds[b]
    if ka != kb:
        return False
    if ka == LIT:
        return arena_a.payload[a] == arena_b.payload[b]
    if ka in (TRUE, FALSE):
        return True
    ca, cb = arena_a.payload[a], arena_b.payload[b]
    if len(ca) != len(cb):
        return False
    if memo is None:
        memo = {}
    known = memo.get((a, b))
    if known is None:
        known = memo[a, b] = all(structural_equal(arena_a, x, arena_b, y, memo)
                                 for x, y in zip(ca, cb))
    return known


def subformulas(arena: Arena, node: int) -> list[int]:
    """The distinct nodes reachable from `node`, in preorder of first visits."""
    kinds, payload = arena.kinds, arena.payload
    seen: dict[int, None] = {}  # insertion-ordered set
    stack = [node]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen[n] = None
        if kinds[n] != LIT:  # constants have no children
            stack.extend(reversed(payload[n]))
    return list(seen)


def topological(arena: Arena, node: int) -> list[int]:
    """The distinct nodes reachable from `node`, children before parents."""
    return sorted(subformulas(arena, node))


def node_vars(arena: Arena, node: int) -> set[int]:
    """Variables occurring in the subformula rooted at `node`."""
    kinds, payload = arena.kinds, arena.payload
    return {abs(payload[n]) for n in subformulas(arena, node) if kinds[n] == LIT}


def evaluate(arena: Arena, node: int, values) -> int:
    """Evaluate under a total assignment (mapping var -> 0/1).

    Raises ValueError when a variable of the subformula is unassigned.
    """
    kinds, payload = arena.kinds, arena.payload
    value: dict[int, int] = {}
    for n in topological(arena, node):
        kind = kinds[n]
        if kind == LIT:
            lit = payload[n]
            val = values.get(abs(lit))
            if val is None:
                raise ValueError(f"variable {abs(lit)} is unassigned")
            value[n] = int(bool(val)) if lit > 0 else 1 - int(bool(val))
        elif kind == AND:
            value[n] = int(all(value[c] for c in payload[n]))
        elif kind == OR:
            value[n] = int(any(value[c] for c in payload[n]))
        else:
            value[n] = int(kind == TRUE)
    return value[node]


@dataclass(frozen=True)
class Scope:
    """One maximal quantifier block of the prefix."""

    quantifier: Quantifier
    vars: tuple[int, ...]


def merge_adjacent(scopes) -> list[Scope]:
    """Merge adjacent blocks with the same quantifier, dropping empty ones."""
    merged: list[Scope] = []
    for scope in scopes:
        if not scope.vars:
            continue
        if merged and merged[-1].quantifier is scope.quantifier:
            merged[-1] = Scope(scope.quantifier, merged[-1].vars + scope.vars)
        else:
            merged.append(scope)
    return merged


@dataclass
class QbfProblem:
    """A closed prenex NNF problem: prefix plus matrix over an arena."""

    arena: Arena
    prefix: list[Scope]
    matrix: int
    var_names: dict[int, str]
    var_scope: dict[int, int] = field(default_factory=dict)
    # parser provenance: arena node -> originating QCIR gate id (informational)
    node_gate: dict[int, int] = field(default_factory=dict)

    @classmethod
    def make(cls, arena: Arena, prefix, matrix: int,
             var_names: dict[int, str] | None = None,
             node_gate: dict[int, int] | None = None) -> "QbfProblem":
        prefix = list(prefix)
        var_scope: dict[int, int] = {}
        for index, scope in enumerate(prefix, start=1):
            if not scope.vars:
                raise ValueError(f"scope {index} is empty")
            for v in scope.vars:
                if v in var_scope:
                    raise ValueError(f"variable {v} bound twice")
                var_scope[v] = index
        unbound = node_vars(arena, matrix) - set(var_scope)
        if unbound:
            raise ValueError(f"unbound matrix variables: {sorted(unbound)}")
        names = dict(var_names or {})
        for v in var_scope:
            names.setdefault(v, str(v))
        return cls(arena, prefix, matrix, names, var_scope, dict(node_gate or {}))

    @property
    def scope_count(self) -> int:
        return len(self.prefix)

    def quantifier_of(self, var: int) -> Quantifier:
        return self.prefix[self.var_scope[var] - 1].quantifier

    def all_vars(self) -> list[int]:
        """All prefix variables, outermost scope first."""
        return [v for scope in self.prefix for v in scope.vars]

    def matrix_constant(self) -> bool | None:
        """The matrix's truth value when it folded to a constant, else None."""
        kind = self.arena.kinds[self.matrix]
        if kind == TRUE:
            return True
        if kind == FALSE:
            return False
        return None


def dependencies(problem: QbfProblem, var: int) -> list[int]:
    """Variables the certificate function for `var` may depend on.

    Existential variables depend on outer universals, universal variables on
    outer existentials; the problem being closed, there are no free variables.
    """
    scope_index = problem.var_scope.get(var)
    if scope_index is None:
        raise ValueError(f"variable {var} is not bound by the prefix")
    want = problem.prefix[scope_index - 1].quantifier.complement
    deps: list[int] = []
    for scope in problem.prefix[: scope_index - 1]:
        if scope.quantifier is want:
            deps.extend(scope.vars)
    return deps


def problems_equal(a: QbfProblem, b: QbfProblem) -> bool:
    """Structural equality by variable name: prefix shape and matrix shape."""
    if len(a.prefix) != len(b.prefix):
        return False
    for sa, sb in zip(a.prefix, b.prefix):
        if sa.quantifier is not sb.quantifier:
            return False
        if tuple(a.var_names[v] for v in sa.vars) != tuple(b.var_names[v] for v in sb.vars):
            return False

    equal: dict[tuple[int, int], bool] = {}  # each node pair compared once

    def eq(na: int, nb: int) -> bool:
        known = equal.get((na, nb))
        if known is not None:
            return known
        ka, kb = a.arena.kinds[na], b.arena.kinds[nb]
        if ka != kb:
            result = False
        elif ka == LIT:
            la, lb = a.arena.payload[na], b.arena.payload[nb]
            result = ((la > 0) == (lb > 0)
                      and a.var_names[abs(la)] == b.var_names[abs(lb)])
        elif ka in (TRUE, FALSE):
            result = True
        else:
            ca, cb = a.arena.payload[na], b.arena.payload[nb]
            result = len(ca) == len(cb) and all(eq(x, y) for x, y in zip(ca, cb))
        equal[na, nb] = result
        return result

    return eq(a.matrix, b.matrix)
