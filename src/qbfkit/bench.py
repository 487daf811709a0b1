"""Benchmark families and a small experiment driver.

Two structured families stress the two solving algorithms in opposite ways:

* ``gen_qparity`` builds parity games whose unique countermove is the parity
  of the existential variables. Round-based play must enumerate every parity
  function entry, while the interface abstraction refutes the game with a
  constant number of refinements.
* ``gen_expansion_hard`` chains blocks whose clauses force assignment
  enumeration in both polarities at every depth, again refuted with linearly
  many refinements by the abstraction.

``gen_random`` produces reproducible random closed problems for differential
testing, and ``run_experiment`` solves a list of instances with both
algorithms and tabulates the per-scope refinement counts as CSV.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass

from .formula import (AND, OR, Arena, QbfProblem, Quantifier, Scope,
                      merge_adjacent, subformulas)
from .solver import solve


def gen_qparity(n: int, chain: bool = False) -> QbfProblem:
    """The parity game over n existential inputs and one universal output.

    exists x1..xn forall z . (z | parity(X)) & (~z | ~parity(X)); false for
    every n, and the only winning countermove is z = parity(X). Both parity
    polarities are materialized as NNF trees, balanced by default or nested
    linearly with ``chain``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    arena = Arena()

    def combine(left, right) -> tuple[int, int]:
        """Odd and even parity nodes of two parts' concatenation."""
        (lodd, leven), (rodd, reven) = left, right
        odd = arena.build(OR, [arena.build(AND, [lodd, reven]),
                               arena.build(AND, [leven, rodd])])
        even = arena.build(OR, [arena.build(AND, [lodd, rodd]),
                                arena.build(AND, [leven, reven])])
        return odd, even

    def parity(lo: int, hi: int) -> tuple[int, int]:
        """Odd and even parity nodes of the variables lo..hi, balanced."""
        if lo == hi:
            return arena.lit(lo), arena.lit(-lo)
        mid = (lo + hi) // 2
        return combine(parity(lo, mid), parity(mid + 1, hi))

    if not chain:
        odd, even = parity(1, n)
    else:  # every leaf, then the combines from the innermost outward
        leaves = [(arena.lit(v), arena.lit(-v)) for v in range(1, n + 1)]
        odd, even = leaves.pop()
        for leaf in reversed(leaves):
            odd, even = combine(leaf, (odd, even))
    z = n + 1
    matrix = arena.build(AND, [arena.build(OR, [arena.lit(z), odd]),
                               arena.build(OR, [arena.lit(-z), even])])
    names = {v: f"x{v}" for v in range(1, n + 1)}
    names[z] = "z"
    prefix = [Scope(Quantifier.EXISTS, tuple(range(1, n + 1))),
              Scope(Quantifier.FORALL, (z,))]
    return QbfProblem.make(arena, prefix, matrix, names)


def gen_expansion_hard(n: int) -> QbfProblem:
    """A 2n+1 block family that defeats assignment enumeration.

    Block i contributes exists e_i forall u_i exists c_{2i-1} c_{2i} and the
    clauses ((~e_i & ~u_i) | c_{2i-1}) and ((e_i & u_i) | c_{2i}); a final
    disjunction asks for some c to be false. Playing u_i = ~e_i forces every
    c true, so the family is false, but an assignment-based refutation has
    to explore both polarities of every block.
    """
    if n < 1:
        raise ValueError("n must be positive")
    arena = Arena()
    names: dict[int, str] = {}
    scopes: list[Scope] = []
    conjuncts: list[int] = []
    c_vars: list[int] = []
    for i in range(1, n + 1):
        e, u = 4 * i - 3, 4 * i - 2
        c_lo, c_hi = 4 * i - 1, 4 * i
        names[e], names[u] = f"e{i}", f"u{i}"
        names[c_lo], names[c_hi] = f"c{2 * i - 1}", f"c{2 * i}"
        scopes += [Scope(Quantifier.EXISTS, (e,)),
                   Scope(Quantifier.FORALL, (u,)),
                   Scope(Quantifier.EXISTS, (c_lo, c_hi))]
        conjuncts.append(arena.build(OR, [
            arena.build(AND, [arena.lit(-e), arena.lit(-u)]),
            arena.lit(c_lo)]))
        conjuncts.append(arena.build(OR, [
            arena.build(AND, [arena.lit(e), arena.lit(u)]),
            arena.lit(c_hi)]))
        c_vars += [c_lo, c_hi]
    conjuncts.append(arena.build(OR, [arena.lit(-c) for c in c_vars]))
    matrix = arena.build(AND, conjuncts)
    return QbfProblem.make(arena, merge_adjacent(scopes), matrix, names)


@dataclass(frozen=True)
class GenSpec:
    """Size envelope and seed for one random instance."""

    max_vars: int = 8
    max_blocks: int = 4
    max_nodes: int = 40
    seed: int = 0


def _random_tree(rng: random.Random, arena: Arena, nvars: int,
                 budget: int) -> int:
    if budget < 3 or rng.random() < 0.25:
        v = rng.randint(1, nvars)
        return arena.lit(v if rng.random() < 0.5 else -v)
    arity = rng.randint(2, 3)
    share = max(1, (budget - 1) // arity)
    children = [_random_tree(rng, arena, nvars, share) for _ in range(arity)]
    return arena.build(AND if rng.random() < 0.5 else OR, children)


def gen_random(spec: GenSpec) -> QbfProblem:
    """A reproducible random closed problem within the spec's envelope."""
    rng = random.Random(spec.seed)
    while True:
        nvars = rng.randint(2, spec.max_vars)
        order = list(range(1, nvars + 1))
        rng.shuffle(order)
        nblocks = rng.randint(1, min(spec.max_blocks, nvars))
        cuts = sorted(rng.sample(range(1, nvars), nblocks - 1))
        scopes = []
        for lo, hi in zip([0] + cuts, cuts + [nvars]):
            quantifier = rng.choice((Quantifier.EXISTS, Quantifier.FORALL))
            scopes.append(Scope(quantifier, tuple(order[lo:hi])))
        arena = Arena()
        matrix = _random_tree(rng, arena, nvars, spec.max_nodes)
        problem = QbfProblem.make(arena, merge_adjacent(scopes), matrix)
        if problem.matrix_constant() is None \
                and len(subformulas(arena, matrix)) <= spec.max_nodes:
            return problem


CSV_HEADER = ("family,n,algorithm,truth,refinements_per_scope,"
              "total_iterations,wall_time_s")


def stats_csv(rows) -> str:
    """CSV text: the header, then one line per (label, n, algorithm, value,
    stats) row.

    The per-scope refinement counts are joined with ';' to stay one CSV
    field, outermost scope first.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for label, n, algorithm, value, stats in rows:
        writer.writerow([
            label, n, algorithm, "TRUE" if value else "FALSE",
            ";".join(str(r) for r in stats.refinements),
            stats.total_iterations, f"{stats.wall_time:.6f}"])
    return buf.getvalue()


def run_experiment(instances, algorithms=("abstraction", "assignment")) -> str:
    """Solve each (family, n, problem) with each algorithm; report CSV."""
    rows = [(family, n, algorithm, *solve(problem, algorithm))
            for family, n, problem in instances for algorithm in algorithms]
    return stats_csv(rows)
