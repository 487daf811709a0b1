"""Incremental CDCL SAT solver with assumptions and failed-assumption cores.

Clause learning is first-UIP with two-watched-literal propagation; assumptions
are fed as leading decisions and cores are extracted from the implication
graph, Minisat style. Decisions follow variable activity with a deterministic
index tie-break and a default false phase, so identical clause and assumption
sequences reproduce identical models. The decision heap lives as long as the
solver: each unassigned variable has an entry with its current activity, and
an outdated entry ranks after it, so it pops once the variable is assigned.

The solver knows clauses only. A formula reaches it as an and-inverter
graph (`aiger.encode_formula`) whose cone `aiger.Circuit.to_cnf` encodes,
three clauses per gate: so the assignment solver encodes the matrix and the
certificate checker its miter. The per-block abstractions of
:mod:`qbfkit.abstraction` write their own clauses.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

_UNDEF = -1


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
        # every added clause, in order; read by the abstraction's claim
        # maximization and symbolic views
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
        self.conflicts = 0
        self.propagations = 0

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

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        v = abs(lit)
        self.assign[v] = 1 if lit > 0 else 0
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _cancel_until(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        bound = self.trail_lim[target_level]
        for lit in self.trail[bound:]:
            v = abs(lit)
            self.assign[v] = _UNDEF
            self.reason[v] = None
            heapq.heappush(self.order, (-self.activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[target_level:]
        self.qhead = bound

    # ------------------------------------------------------------------
    # propagation

    def _propagate(self) -> list[int] | None:
        trail = self.trail
        watches = self.watches
        assign = self.assign
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
                self._enqueue(first, c)
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

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        learnt: list[int] = []
        current = len(self.trail_lim)  # the conflict level
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
            while not seen[abs(self.trail[idx])]:
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
                    if not self.trail_lim:
                        self.ok = False
                        return SolveResult(False, failed=())
                    learnt, bt = self._analyze(confl)
                    self._cancel_until(bt)
                    if len(learnt) == 1:
                        self._enqueue(learnt[0], None)
                    else:
                        self._attach(learnt)
                        self._enqueue(learnt[0], learnt)
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
