"""Per-layer spans around qbfkit's entry points, recorded from outside it.

``Tracer.install`` replaces each public entry point below, in every loaded
``qbfkit`` module that holds a reference to it, with a wrapper that records
a span; ``uninstall`` puts the originals back. Nothing inside ``src/``
changes. Spans are kept in memory as
``[name, start, end, parent, instance, attrs]`` and written out at the end.

SAT queries are tagged by side: ``ScopeAbstraction.build`` is wrapped to
learn which ``Solver`` objects are a block's claim side (``theta``) and which
its challenger side (``dual``). Any other query is named after the layer
span that encloses it, so the certificate check's single query becomes
``sat.verify`` and the assignment solver's queries ``sat.assignment``.
"""

from __future__ import annotations

import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter

from qbfkit.abstraction import ScopeAbstraction
from qbfkit.sat import Solver

# (module, function) -> span name
ENTRY_POINTS = {
    ("qbfkit.parsing", "parse_qcir"): "parsing",
    ("qbfkit.preprocess", "preprocess"): "preprocess",
    ("qbfkit.solver", "solve_abstraction"): "solver",
    ("qbfkit.solver", "solve_assignment"): "solver.assignment",
    ("qbfkit.abstraction", "compute_influence"): "abstraction.influence",
    ("qbfkit.certify", "build_certificate"): "certify.extract",
    ("qbfkit.certify", "verify"): "certify.verify",
    ("qbfkit.aiger", "write_aiger"): "aiger.write",
    ("qbfkit.aiger", "read_aiger"): "aiger.read",
}

NAME, START, END, PARENT, INSTANCE, ATTRS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance = -1
        self._open: list[int] = []
        self._side = weakref.WeakKeyDictionary()  # Solver -> "claim" | ...
        self._serial = weakref.WeakKeyDictionary()  # Solver -> int
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.instance,
                           None])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int, attrs=None) -> None:
        span = self.spans[index]
        span[END] = perf_counter()
        span[ATTRS] = attrs
        self._open.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    # ------------------------------------------------------------------
    # wrappers

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "qbfkit" or name.startswith("qbfkit.")]
        for (module, attr), span in ENTRY_POINTS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(span, original)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._patch(m, attr, wrapper)

        build = ScopeAbstraction.__dict__["build"].__func__
        solve = Solver.solve
        tracer = self

        def traced_build(cls, *args, **kwargs):
            i = tracer.begin("abstraction.build")
            try:
                block = build(cls, *args, **kwargs)
            finally:
                tracer.end(i)
            tracer._side[block.theta] = "claim"
            tracer._side[block.dual] = "challenger"
            return block

        def traced_solve(solver, assumptions=()):
            side = tracer._side.get(solver)
            if side is None:
                enclosing = tracer.spans[tracer._open[-1]][NAME] \
                    if tracer._open else "solver"
                side = enclosing.rsplit(".", 1)[-1]
            serial = tracer._serial.setdefault(solver, len(tracer.spans))
            conflicts, propagations = solver.conflicts, solver.propagations
            i = tracer.begin("sat." + side)
            result = None
            try:
                result = solve(solver, assumptions)
                return result
            finally:
                unsat = result is not None and not result.sat
                tracer.end(i, {
                    "solver": serial,
                    "conflicts": solver.conflicts - conflicts,
                    "propagations": solver.propagations - propagations,
                    "unsat": unsat,
                    "core": len(result.failed) if unsat else 0,
                    "clauses": len(solver.db)})

        self._patch(ScopeAbstraction, "build", classmethod(traced_build))
        self._patch(Solver, "solve", traced_solve)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, function):
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(i)
        return traced


# ----------------------------------------------------------------------
# per-instance profiles

def profiles(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per instance: total, self time and count of every span name, and the
    SAT counters of each side.

    Keys are ``<span>.total``, ``<span>.self``, ``<span>.count`` and, for
    SAT spans, ``<span>.conflicts``, ``.propagations``, ``.unsat``,
    ``.core`` (summed core lengths), ``.max`` (longest query) and
    ``.clauses`` (clause database size of each solver after its last query,
    summed over solvers).
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    clauses: dict[tuple[int, str], dict[int, int]] = defaultdict(dict)
    for i, span in enumerate(spans):
        name, took = span[NAME], span[END] - span[START]
        p = out[span[INSTANCE]]
        p[name + ".total"] += took
        p[name + ".self"] += took - child[i]
        p[name + ".count"] += 1
        attrs = span[ATTRS]
        if attrs is None:
            continue
        for key in ("conflicts", "propagations", "unsat", "core"):
            p[f"{name}.{key}"] += attrs[key]
        p[name + ".max"] = max(p[name + ".max"], took)
        clauses[span[INSTANCE], name][attrs["solver"]] = attrs["clauses"]
    for (instance, name), last in clauses.items():
        out[instance][name + ".clauses"] = sum(last.values())
    return out
