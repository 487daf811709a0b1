"""Truth-preserving simplification applied before solving.

Three rules run to a fixpoint:

* structural folding - tautological disjunctions become true, contradictory
  conjunctions become false (constants then fold away entirely),
* forced literals - a literal that is a conjunct of the whole matrix fixes an
  existential variable to its polarity, and makes the problem false when the
  variable is universal,
* pure literals - a variable occurring under one polarity only is fixed to
  the polarity that satisfies its occurrences when existential, and to the
  opposite one when universal.

Every eliminated variable gets a recorded constant value, which is exactly
the certificate function the eliminated variable contributes; certificates of
the reduced problem extend to the original one by adding those constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .formula import (AND, FALSE, LIT, OR, TRUE, Arena, QbfProblem, Quantifier,
                      Scope, class_postorder)


@dataclass
class PreprocessInfo:
    """What preprocessing removed: variable -> its constant function value."""

    eliminated: dict[int, bool] = field(default_factory=dict)
    rounds: int = 0


def _rebuild(dst: Arena, src: Arena, node: int, subst: dict[int, bool],
             memo: dict[int, int]) -> int:
    """Copy a subformula applying a substitution; fold constants and clashes.

    `memo` maps the class id (`src.canon`) of each source node copied to
    its copy in `dst`, so a shared node and every structurally equal copy
    of it are copied once. Copies that the substitution makes equal are
    merged too: every class of `dst` keeps its first copy. The copy of
    `node` is returned.
    """
    kinds, payload, canon = src.kinds, src.payload, src.canon
    kept: dict[int, int] = {}  # dst class id -> first copy of that class
    for n in class_postorder(src, node, memo):
        kind = kinds[n]
        if kind == LIT:
            lit = payload[n]
            value = subst.get(abs(lit))
            if value is None:
                out = dst.lit(lit)
            else:
                out = dst.const(value if lit > 0 else not value)
        elif kind in (TRUE, FALSE):
            out = dst.const(kind == TRUE)
        else:
            out = dst.build(kind, [memo[canon[c]] for c in payload[n]])
            out_kind = dst.kinds[out]
            if out_kind in (AND, OR):
                lits = {dst.payload[c] for c in dst.payload[out]
                        if dst.kinds[c] == LIT}
                if any(-l in lits for l in lits):
                    out = dst.const(out_kind == OR)
        memo[canon[n]] = kept.setdefault(dst.canon[out], out)
    return memo[canon[node]]


def _forced_literals(arena: Arena, matrix: int) -> list[int]:
    """Literals that are conjuncts of the whole matrix."""
    kind = arena.kinds[matrix]
    if kind == LIT:
        return [arena.payload[matrix]]
    if kind == AND:
        return [arena.payload[c] for c in arena.payload[matrix]
                if arena.kinds[c] == LIT]
    return []


def _polarities(arena: Arena, matrix: int) -> tuple[set[int], set[int]]:
    pos: set[int] = set()
    neg: set[int] = set()
    for n in class_postorder(arena, matrix):
        if arena.kinds[n] == LIT:
            lit = arena.payload[n]
            (pos if lit > 0 else neg).add(abs(lit))
    return pos, neg


def preprocess(problem: QbfProblem) -> tuple[QbfProblem, PreprocessInfo]:
    """Simplify a problem; the result has the same truth value.

    Variable ids and names carry over unchanged, so certificates for the
    reduced problem talk about the original variables directly.
    """
    info = PreprocessInfo()
    quantifier = {v: problem.quantifier_of(v) for v in problem.all_vars()}
    src, matrix, node_gate = problem.arena, problem.matrix, problem.node_gate
    subst: dict[int, bool] = {}
    while True:
        info.rounds += 1
        dst, copies = Arena(), {}
        matrix = _rebuild(dst, src, matrix, subst, copies)
        # gate provenance follows a node through its class to that class's
        # copy; where several gates land on one copy, the first one wins
        carried: dict[int, int] = {}
        for node, gate in node_gate.items():
            copy = copies.get(src.canon[node])
            if copy is not None:
                carried.setdefault(copy, gate)
        src, node_gate = dst, carried
        if src.kinds[matrix] in (TRUE, FALSE):
            break
        subst = {}
        for lit in _forced_literals(src, matrix):
            v = abs(lit)
            if quantifier[v] is Quantifier.EXISTS:
                subst[v] = lit > 0
            else:
                # the universal player falsifies the forced literal
                info.eliminated[v] = not (lit > 0)
                matrix = src.const(False)
                break
        if src.kinds[matrix] == FALSE:
            break
        pos, neg = _polarities(src, matrix)
        for v in pos ^ neg:  # one polarity only
            polarity = v in pos
            if quantifier[v] is Quantifier.EXISTS:
                subst.setdefault(v, polarity)
            else:
                subst.setdefault(v, not polarity)
        if not subst:
            break
        info.eliminated.update(subst)

    prefix = [Scope(s.quantifier,
                    tuple(v for v in s.vars if v not in info.eliminated))
              for s in problem.prefix]
    names = {v: problem.var_names[v] for v in quantifier if v not in info.eliminated}
    if src.kinds[matrix] in (TRUE, FALSE):
        node_gate = {}
    reduced = QbfProblem.make(src, prefix, matrix, names, node_gate)
    return reduced, info
