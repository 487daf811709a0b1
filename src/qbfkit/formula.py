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
    QCIR gate shared by name stays one node. Every node gets a structural
    class id (`canon`) when it is created, from a per-arena table keyed by
    its literal, or by its kind and its children's class ids: two nodes get
    the same class exactly when they are structurally equal. Nodes of one
    class are not merged here; each `lit` and `build` call still appends a
    node. Most passes that read a matrix merge them: they walk it with
    `class_postorder` and key their memos by class id, so
    `QbfProblem.make`, `evaluate`, preprocessing and
    `aiger.encode_formula` (the assignment solver's, the certificate
    builder's and the verifier's one encoder into an and-inverter graph)
    each handle every class once, and preprocessing copies one node per
    class. `compute_influence` (in `abstraction`),
    and so the per-block abstractions, still see every node, since each
    needs its own `max_scope`; `write_qcir` writes every occurrence.
    A node's children always exist before it, so ascending ids are a
    topological order. Constants may exist in the arena but `build` folds
    them away, so they never remain inside a normalized matrix.
    """

    __slots__ = ("kinds", "payload", "canon", "_classes")

    def __init__(self) -> None:
        self.kinds: list[str] = []
        # literal for "lit" nodes, child tuple for "and"/"or", () for constants
        self.payload: list = []
        self.canon: list[int] = []
        self._classes: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self.kinds)

    def _add(self, kind: str, payload, key: tuple) -> int:
        self.kinds.append(kind)
        self.payload.append(payload)
        self.canon.append(self._classes.setdefault(key, len(self._classes)))
        return len(self.kinds) - 1

    def lit(self, literal: int) -> int:
        """Create a literal leaf. `literal` is a signed variable id."""
        if literal == 0:
            raise ValueError("literal must be a nonzero signed variable id")
        return self._add(LIT, literal, (LIT, literal))

    def const(self, value: bool) -> int:
        kind = TRUE if value else FALSE
        return self._add(kind, (), (kind,))

    def build(self, kind: str, children) -> int:
        """Normalizing constructor for And/Or nodes.

        Flattens same-connective children, folds constants, keeps the first
        child of each structural class, and collapses trivial arities, so the
        result satisfies the matrix invariants (no constant inside, no nested
        same connective, >= 2 distinct children).
        """
        if kind not in (AND, OR):
            raise ValueError(f"build expects '{AND}' or '{OR}', got {kind!r}")
        neutral, absorbing = _NEUTRAL[kind], _ABSORBING[kind]
        canon = self.canon
        kept: dict[int, int] = {}  # class id -> first child of that class
        for child in children:
            ck = self.kinds[child]
            if ck == kind:
                for grandchild in self.payload[child]:
                    kept.setdefault(canon[grandchild], grandchild)
            elif ck == neutral:
                continue
            elif ck == absorbing:
                return child
            else:
                kept.setdefault(canon[child], child)
        if not kept:
            return self._add(neutral, (), (neutral,))
        if len(kept) == 1:
            return next(iter(kept.values()))
        return self._add(kind, tuple(kept.values()), (kind, tuple(kept)))


def postorder(arena: Arena, node: int, done=()) -> list[int]:
    """The distinct nodes reachable from `node` without passing through
    `done`, in the order a depth-first recursion memoized by `done` finishes
    them: children before parents and in payload order, each node once."""
    kinds, payload = arena.kinds, arena.payload
    out: dict[int, None] = {}  # insertion-ordered set
    stack = [] if node in done else [node]
    while stack:
        n = stack.pop()
        if n < 0:  # finish ~n; a leaf finished twice keeps its first place
            out[~n] = None
        elif n not in out:
            stack.append(~n)
            if kinds[n] != LIT:  # constants have no children
                for c in reversed(payload[n]):
                    if c not in out and c not in done:
                        stack.append(~c if kinds[c] == LIT else c)
    return list(out)


def class_postorder(arena: Arena, node: int, done=()) -> list[int]:
    """One node per structural class reachable from `node`, skipping the
    class ids in `done`: the first node of each class to finish, in
    `postorder`'s order. The walk never enters a node whose class it has
    listed, as that node's subformula holds no class it has not, so its
    cost is the number of classes, not of nodes."""
    kinds, payload, canon = arena.kinds, arena.payload, arena.canon
    out: dict[int, int] = {}  # class id -> first node of it to finish
    stack = [] if canon[node] in done else [node]
    while stack:
        n = stack.pop()
        if n < 0:  # finish ~n; a class finished twice keeps its first node
            out.setdefault(canon[~n], ~n)
        elif canon[n] not in out:
            stack.append(~n)
            if kinds[n] != LIT:  # constants have no children
                for c in reversed(payload[n]):
                    k = canon[c]
                    if k not in out and k not in done:
                        stack.append(~c if kinds[c] == LIT else c)
    return list(out.values())


def evaluate(arena: Arena, node: int, values) -> int:
    """Evaluate under a total assignment (mapping var -> 0/1).

    Raises ValueError when a variable of the subformula is unassigned.
    """
    kinds, payload, canon = arena.kinds, arena.payload, arena.canon
    value: dict[int, int] = {}  # class id -> its value
    for n in class_postorder(arena, node):
        kind = kinds[n]
        if kind == LIT:
            lit = payload[n]
            val = values.get(abs(lit))
            if val is None:
                raise ValueError(f"variable {abs(lit)} is unassigned")
            out = int(bool(val)) if lit > 0 else 1 - int(bool(val))
        elif kind == AND:
            out = int(all(value[canon[c]] for c in payload[n]))
        elif kind == OR:
            out = int(any(value[canon[c]] for c in payload[n]))
        else:
            out = int(kind == TRUE)
        value[canon[n]] = out
    return value[canon[node]]


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
    matrix_vars: frozenset[int] = frozenset()  # the variables the matrix reads
    # parser provenance: arena node -> originating QCIR gate id (informational)
    node_gate: dict[int, int] = field(default_factory=dict)

    @classmethod
    def make(cls, arena: Arena, prefix, matrix: int,
             var_names: dict[int, str] | None = None,
             node_gate: dict[int, int] | None = None) -> "QbfProblem":
        """A problem over `prefix` with adjacent blocks of one quantifier
        merged and empty blocks dropped, so its blocks alternate: the
        abstraction solver plays each block against the opposite player.
        `matrix_vars` holds the variables the matrix reads, each of which
        the prefix must bind; a prefix variable outside it is unread."""
        prefix = merge_adjacent(prefix)
        var_scope: dict[int, int] = {}
        for index, scope in enumerate(prefix, start=1):
            for v in scope.vars:
                if v in var_scope:
                    raise ValueError(f"variable {v} bound twice")
                var_scope[v] = index
        kinds, payload = arena.kinds, arena.payload
        matrix_vars = frozenset(abs(payload[n])
                                for n in class_postorder(arena, matrix)
                                if kinds[n] == LIT)
        unbound = matrix_vars - var_scope.keys()
        if unbound:
            raise ValueError(f"unbound matrix variables: {sorted(unbound)}")
        names = dict(var_names or {})
        for v in var_scope:
            names.setdefault(v, str(v))
        return cls(arena, prefix, matrix, names, var_scope, matrix_vars,
                   dict(node_gate or {}))

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

    # one class table for both matrices: equal class ids mean equal structure
    classes: dict[tuple, int] = {}

    def root_class(p: QbfProblem) -> int:
        kinds, payload, canon = p.arena.kinds, p.arena.payload, p.arena.canon
        shared: dict[int, int] = {}  # class id in p's arena -> in `classes`
        for n in class_postorder(p.arena, p.matrix):
            kind = kinds[n]
            if kind == LIT:
                lit = payload[n]
                key = (LIT, lit > 0, p.var_names[abs(lit)])
            else:
                key = (kind, tuple(shared[canon[c]] for c in payload[n]))
            shared[canon[n]] = classes.setdefault(key, len(classes))
        return shared[canon[p.matrix]]

    return root_class(a) == root_class(b)
