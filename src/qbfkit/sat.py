"""Incremental CDCL SAT solver with assumptions and failed-assumption cores.

Clause learning is first-UIP with two-watched-literal propagation; assumptions
are fed as leading decisions and cores are extracted from the implication
graph, Minisat style. Decisions follow variable activity with a deterministic
index tie-break and a default false phase, so identical clause and assumption
sequences reproduce identical models. The decision heap lives as long as the
solver: each unassigned variable has an entry with its current activity, and
an outdated entry ranks after it, so it pops once the variable is assigned.

A backjump that would undo more than `CHRONO_THRESHOLD` levels backtracks
chronologically instead, to one level below the conflict, and the asserting
literal joins the trail out of order at its assertion level (Nadel and
Ryvchin, "Chronological Backtracking", SAT 2018; Moehle and Biere, "Backing
Backtracking", SAT 2019). While such literals are on the trail, an implied
literal takes the highest level among its reason's other literals, a conflict
is analysed at the highest level in its clause, and a backtrack keeps the
literals at or below its target and propagates them again.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .formula import AND, FALSE, LIT, TRUE, Arena, class_postorder

_UNDEF = -1
CHRONO_THRESHOLD = 100  # longest backjump taken non-chronologically, in levels


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve call.

    `model` is a list indexed by variable (entry 0 unused) holding 0/1 when
    satisfiable. `failed` is a subset of the assumption literals whose
    conjunction with the clause database is unsatisfiable; it is sufficient
    but not necessarily minimal.
    """

    sat: bool
    model: list[int] | None = None
    failed: tuple[int, ...] | None = None

    def model_value(self, lit: int) -> int:
        v = self.model[abs(lit)]
        return v if lit > 0 else 1 - v


class Solver:
    """CDCL solver over signed integer literals (DIMACS convention)."""

    def __init__(self) -> None:
        self.nvars = 0
        self.ok = True
        # every added clause, in order; read by dumps and by the abstraction's
        # claim maximization and symbolic views
        self.db: list[tuple[int, ...]] = []
        self.watches: list[list[list[int]]] = [[], []]
        self.assign: list[int] = [_UNDEF]
        self.level: list[int] = [0]
        self.reason: list[list[int] | None] = [None]
        self.activity: list[float] = [0.0]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.seen: list[bool] = [False]
        self.order: list[tuple[float, int]] = []
        self.var_inc = 1.0
        self._out_of_order = False  # trail levels are not ascending
        self.conflicts = 0
        self.propagations = 0
        self._true_lit = 0

    # ------------------------------------------------------------------
    # variables and clauses

    def fresh_var(self) -> int:
        self.nvars += 1
        self.assign.append(_UNDEF)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.seen.append(False)
        self.watches.append([])
        self.watches.append([])
        heapq.heappush(self.order, (0.0, self.nvars))
        return self.nvars

    def true_lit(self) -> int:
        """A literal asserted true, for encoding constants."""
        if self._true_lit == 0:
            self._true_lit = self.fresh_var()
            self.add_clause([self._true_lit])
        return self._true_lit

    def _value(self, lit: int) -> int:
        a = self.assign[abs(lit)]
        if a == _UNDEF:
            return _UNDEF
        return a if lit > 0 else 1 - a

    def add_clause(self, lits) -> None:
        """Add a clause permanently. The empty clause marks the solver Unsat."""
        lits = list(lits)
        for lit in lits:
            if lit == 0 or abs(lit) > self.nvars:
                raise ValueError(f"literal {lit} over an unallocated variable")
        self.db.append(tuple(lits))
        if not self.ok:
            return
        # the trail is at level 0 between solves; simplify against root facts
        out: list[int] = []
        seen = set()
        for lit in lits:
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            val = self._value(lit)
            if val == 1:
                return  # satisfied at root level
            if val == 0:
                continue  # falsified at root level
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            self._enqueue(out[0], None)
            if self._propagate() is not None:
                self.ok = False
            return
        self._attach(out)

    def _attach(self, clause: list[int]) -> None:
        self.watches[self._widx(clause[0])].append(clause)
        self.watches[self._widx(clause[1])].append(clause)

    @staticmethod
    def _widx(lit: int) -> int:
        return 2 * lit if lit > 0 else 1 - 2 * lit

    # ------------------------------------------------------------------
    # trail

    def _enqueue(self, lit: int, reason: list[int] | None,
                 level: int | None = None) -> None:
        v = abs(lit)
        self.assign[v] = 1 if lit > 0 else 0
        self.level[v] = len(self.trail_lim) if level is None else level
        self.reason[v] = reason
        self.trail.append(lit)

    def _cancel_until(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        bound = self.trail_lim[target_level]
        keep = self._out_of_order
        kept: list[int] = []  # out-of-order literals, propagated again
        for lit in self.trail[bound:]:
            v = abs(lit)
            if keep and self.level[v] <= target_level:
                kept.append(lit)
                continue
            self.assign[v] = _UNDEF
            self.reason[v] = None
            heapq.heappush(self.order, (-self.activity[v], v))
        self.trail[bound:] = kept
        del self.trail_lim[target_level:]
        self.qhead = bound
        if target_level == 0:
            self._out_of_order = False

    # ------------------------------------------------------------------
    # propagation

    def _propagate(self) -> list[int] | None:
        trail = self.trail
        watches = self.watches
        assign = self.assign
        level = self.level
        out_of_order = self._out_of_order
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            idx = self._widx(-p)
            ws = watches[idx]
            kept: list[list[int]] = []
            n = len(ws)
            i = 0
            while i < n:
                c = ws[i]
                i += 1
                if c[0] == -p:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                a = assign[abs(first)]
                if a != _UNDEF and (a == 1) == (first > 0):
                    kept.append(c)
                    continue
                moved = False
                for k in range(2, len(c)):
                    lk = c[k]
                    ak = assign[abs(lk)]
                    if ak == _UNDEF or (ak == 1) == (lk > 0):
                        c[1], c[k] = c[k], c[1]
                        watches[self._widx(c[1])].append(c)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(c)
                if a != _UNDEF:  # first is false: conflict
                    kept.extend(ws[i:])
                    watches[idx] = kept
                    self.qhead = len(trail)
                    return c
                self._enqueue(first, c, max(
                    level[abs(q)] for q in itertools.islice(c, 1, None))
                    if out_of_order else None)
            watches[idx] = kept
        return None

    # ------------------------------------------------------------------
    # conflict analysis

    def _bump(self, v: int) -> None:
        act = self.activity[v] + self.var_inc
        self.activity[v] = act
        if act > 1e100:
            inv = 1e-100
            for i in range(1, self.nvars + 1):
                self.activity[i] *= inv
            self.var_inc *= inv
            self.order = [(-self.activity[i], i)
                          for i in range(1, self.nvars + 1)
                          if self.assign[i] == _UNDEF]
            heapq.heapify(self.order)

    def _watch_highest(self, c: list[int]) -> tuple[int, int]:
        """Move the two highest-level literals of `c` to its watched front,
        moving its watches with them; return their two levels."""
        level = self.level
        old = c[:2]
        for pos in (0, 1):
            best = max(range(pos, len(c)), key=lambda k: level[abs(c[k])])
            c[pos], c[best] = c[best], c[pos]
        for lit in old:
            if lit not in c[:2]:
                ws = self.watches[self._widx(lit)]
                del ws[next(i for i, w in enumerate(ws) if w is c)]
        for lit in c[:2]:
            if lit not in old:
                self.watches[self._widx(lit)].append(c)
        return level[abs(c[0])], level[abs(c[1])]

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        learnt: list[int] = []
        current = len(self.trail_lim)  # the conflict level
        level = self.level
        seen = self.seen
        cleared: list[int] = []
        counter = 0
        p = 0
        idx = len(self.trail) - 1
        c = confl
        while True:
            for q in c if p == 0 else itertools.islice(c, 1, None):
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    cleared.append(v)
                    self._bump(v)
                    if self.level[v] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            while (not seen[abs(self.trail[idx])]
                   or level[abs(self.trail[idx])] < current):
                idx -= 1
            p = self.trail[idx]
            seen[abs(p)] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            c = self.reason[abs(p)]
        learnt.insert(0, -p)
        for v in cleared:
            seen[v] = False
        if len(learnt) == 1:
            bt = 0
        else:
            hi = 1
            for k in range(2, len(learnt)):
                if self.level[abs(learnt[k])] > self.level[abs(learnt[hi])]:
                    hi = k
            learnt[1], learnt[hi] = learnt[hi], learnt[1]
            bt = self.level[abs(learnt[1])]
        return learnt, bt

    def _analyze_final(self, p: int) -> tuple[int, ...]:
        """Failed assumptions implicated in forcing assumption `p` false."""
        out = [p]
        if not self.trail_lim:
            return tuple(out)
        seen = self.seen
        cleared = [abs(p)]
        seen[abs(p)] = True
        for i in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            q = self.trail[i]
            v = abs(q)
            if not seen[v]:
                continue
            r = self.reason[v]
            if r is None:
                if self.level[v] > 0:
                    out.append(q)
            else:
                for lit in r:
                    u = abs(lit)
                    if self.level[u] > 0 and not seen[u]:
                        seen[u] = True
                        cleared.append(u)
            seen[v] = False
        for v in cleared:
            seen[v] = False
        return tuple(dict.fromkeys(out))

    # ------------------------------------------------------------------
    # search

    def _pick_branch_var(self) -> int | None:
        order = self.order
        while order:
            _, v = heapq.heappop(order)
            if self.assign[v] == _UNDEF:
                return v
        return None

    def solve(self, assumptions=()) -> SolveResult:
        """Solve under assumption literals; state persists across calls."""
        assumps = list(dict.fromkeys(assumptions))
        lits = set(assumps)
        for a in assumps:
            if a == 0 or abs(a) > self.nvars:
                raise ValueError(f"assumption {a} over an unallocated variable")
            if -a in lits:
                return SolveResult(False, failed=(a, -a) if a > 0 else (-a, a))
        if not self.ok:
            return SolveResult(False, failed=())
        if self._propagate() is not None:
            self.ok = False
            return SolveResult(False, failed=())

        restart_budget = 100
        conflicts_here = 0
        try:
            while True:
                confl = self._propagate()
                if confl is not None:
                    self.conflicts += 1
                    conflicts_here += 1
                    if self._out_of_order:
                        top, second = self._watch_highest(confl)
                        if second < top:  # an implication missed at `second`
                            self._cancel_until(top - 1)
                            self._enqueue(confl[0], confl, second)
                            continue
                        self._cancel_until(top)
                    if not self.trail_lim:
                        self.ok = False
                        return SolveResult(False, failed=())
                    learnt, bt = self._analyze(confl)
                    target = bt
                    if len(self.trail_lim) - bt > CHRONO_THRESHOLD:
                        target = len(self.trail_lim) - 1
                        self._out_of_order = True
                    self._cancel_until(target)
                    if len(learnt) == 1:
                        self._enqueue(learnt[0], None, 0)
                    else:
                        self._attach(learnt)
                        self._enqueue(learnt[0], learnt, bt)
                    self.var_inc /= 0.95
                    if conflicts_here >= restart_budget:
                        conflicts_here = 0
                        restart_budget = int(restart_budget * 1.5)
                        self._cancel_until(0)
                    continue
                level = len(self.trail_lim)
                if level < len(assumps):
                    a = assumps[level]
                    val = self._value(a)
                    if val == 1:
                        self.trail_lim.append(len(self.trail))
                    elif val == 0:
                        return SolveResult(False, failed=self._analyze_final(a))
                    else:
                        self.trail_lim.append(len(self.trail))
                        self._enqueue(a, None)
                    continue
                v = self._pick_branch_var()
                if v is None:
                    model = [0] + self.assign[1:]
                    return SolveResult(True, model=model)
                self.trail_lim.append(len(self.trail))
                self._enqueue(-v, None)  # default phase false
        finally:
            self._cancel_until(0)

    def to_dimacs(self) -> str:
        """The full added-clause database in DIMACS, for external debugging."""
        lines = [f"p cnf {self.nvars} {len(self.db)}"]
        for clause in self.db:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# NNF to CNF

def encode_nnf(solver: Solver, arena: Arena, node: int,
               var_map: dict[int, int], negate: bool = False) -> int:
    """Encode an NNF subformula one-sidedly; the returned literal implies it.

    `var_map` maps formula variables to solver variables and is extended on
    demand. The walk and its memo are keyed by structural class
    (`arena.canon`), so a node gets one gate however many parents it has,
    and structurally equal nodes share it.
    """
    kinds, payload, canon = arena.kinds, arena.payload, arena.canon
    gate_of: dict[int, int] = {}  # class id -> literal
    for n in class_postorder(arena, node):
        kind = kinds[n]
        if kind == LIT:
            lit = -payload[n] if negate else payload[n]
            v = abs(lit)
            mapped = var_map.get(v)
            if mapped is None:
                mapped = solver.fresh_var()
                var_map[v] = mapped
            out = mapped if lit > 0 else -mapped
        elif kind in (TRUE, FALSE):
            t = solver.true_lit()
            out = t if (kind == TRUE) != negate else -t
        else:
            child_lits = [gate_of[canon[c]] for c in payload[n]]
            out = solver.fresh_var()
            if (kind == AND) != negate:
                for cl in child_lits:
                    solver.add_clause([-out, cl])
            else:
                solver.add_clause([-out] + child_lits)
        gate_of[canon[n]] = out
    return gate_of[canon[node]]
