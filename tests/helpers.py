"""Shared helpers for the test suite: generators and a reference evaluator."""

import itertools

from qbfkit.formula import (Arena, QbfProblem, Quantifier, Scope, evaluate,
                            merge_adjacent)


def random_nnf(rng, arena, nvars, budget):
    if budget <= 1 or rng.random() < 0.3:
        v = rng.randint(1, nvars)
        return arena.lit(v if rng.random() < 0.5 else -v)
    op = "and" if rng.random() < 0.5 else "or"
    n = rng.randint(2, 3)
    return arena.build(op, [random_nnf(rng, arena, nvars, budget // n)
                            for _ in range(n)])


def random_problem(rng, max_vars=6, max_budget=14, impure=False):
    """A small closed prenex NNF problem with a random prefix shape.

    With `impure`, every variable of the matrix occurs under both polarities,
    which keeps pure-literal elimination from collapsing the problem.
    """
    from qbfkit.formula import LIT, postorder

    while True:
        arena = Arena()
        nvars = rng.randint(2, max_vars)
        matrix = random_nnf(rng, arena, nvars, rng.randint(4, max_budget))
        if not impure:
            break
        pos, neg = set(), set()
        for n in postorder(arena, matrix):
            if arena.kinds[n] == LIT:
                lit = arena.payload[n]
                (pos if lit > 0 else neg).add(abs(lit))
        if pos == neg:
            break
    return QbfProblem.make(arena, random_prefix(rng, nvars), matrix)


def random_prefix(rng, nvars):
    """Variables 1..nvars in random order, cut into random blocks."""
    order = list(range(1, nvars + 1))
    rng.shuffle(order)
    scopes = []
    while order:
        take = rng.randint(1, len(order))
        q = Quantifier.EXISTS if rng.random() < 0.5 else Quantifier.FORALL
        scopes.append(Scope(q, tuple(order[:take])))
        order = order[take:]
    return merge_adjacent(scopes)


def brute_force(problem):
    """Reference truth value by full expansion of the prefix."""

    def rec(index, values):
        if index == len(problem.prefix):
            return evaluate(problem.arena, problem.matrix, values) == 1
        scope = problem.prefix[index]
        outcomes = (
            rec(index + 1, {**values, **dict(zip(scope.vars, bits))})
            for bits in itertools.product((0, 1), repeat=len(scope.vars))
        )
        if scope.quantifier is Quantifier.EXISTS:
            return any(outcomes)
        return all(outcomes)

    return rec(0, {})
