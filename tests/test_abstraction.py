"""Tests for the per-block SAT abstractions."""

import hashlib
import random

import pytest

from qbfkit.abstraction import ScopeAbstraction, compute_influence
from qbfkit.bench import gen_expansion_hard, gen_qparity
from qbfkit.formula import AND, LIT, OR, InternalError, Quantifier, subformulas
from qbfkit.parsing import parse_qcir
from qbfkit.preprocess import preprocess

from helpers import random_problem

EXAMPLE_QCIR = """\
#QCIR-G14
forall(x)
exists(y)
output(f)
g = and(-x, y)
f = or(x, g)
"""

PARITY2_QCIR = """\
#QCIR-G14
exists(x1, x2)
forall(z)
output(root)
a1 = and(x1, -x2)
a2 = and(-x1, x2)
p = or(a1, a2)
n1 = and(x1, x2)
n2 = and(-x1, -x2)
np = or(n1, n2)
c1 = or(z, p)
c2 = or(-z, np)
root = and(c1, c2)
"""


def example_problem():
    problem = parse_qcir(EXAMPLE_QCIR)
    psi1 = problem.matrix
    (psi2,) = [c for c in problem.arena.payload[psi1]
               if problem.arena.kinds[c] != LIT]
    return problem, psi1, psi2


def clause(*lits):
    return frozenset(lits)


def pos(tag, key):
    return (True, tag, key)


def neg(tag, key):
    return (False, tag, key)


def test_influence_spans_example():
    problem, psi1, psi2 = example_problem()
    influence = compute_influence(problem)
    assert influence.min_scope[psi1] == 1 and influence.max_scope[psi1] == 2
    assert influence.min_scope[psi2] == 1 and influence.max_scope[psi2] == 2
    for c in problem.arena.payload[psi2]:
        v = abs(problem.arena.payload[c])
        s = problem.var_scope[v]
        assert influence.min_scope[c] == influence.max_scope[c] == s
    assert influence.straddles(psi1, 1)
    assert not influence.straddles(psi1, 0)
    assert not influence.straddles(psi1, 2)


def test_boundary_interfaces_example():
    problem, psi1, psi2 = example_problem()
    influence = compute_influence(problem)
    assert influence.interface == ((), (psi1, psi2), ())


def test_interface_table_is_the_preorder_filter_by_straddles():
    rng = random.Random(23)
    problems = [example_problem()[0], parse_qcir(PARITY2_QCIR)]
    while len(problems) < 200:
        problem = random_problem(rng)
        if problem.matrix_constant() is None:
            problems.append(problem)
    for problem in problems:
        influence = compute_influence(problem)
        preorder = subformulas(problem.arena, problem.matrix)
        assert len(influence.interface) == problem.scope_count + 1
        for k, interface in enumerate(influence.interface):
            assert interface == tuple(n for n in preorder
                                      if influence.straddles(n, k))


def test_universal_block_claim_clauses_example():
    problem, psi1, psi2 = example_problem()
    block = ScopeAbstraction.build(problem, 1)
    assert block.quantifier is Quantifier.FORALL
    assert block.incoming == ()
    assert block.exposed == (psi1, psi2)
    x = 1
    expected = {
        clause(pos("claim", psi1)),
        clause(neg("claim", psi1), neg("var", x)),
        clause(neg("claim", psi2), pos("var", x)),
    }
    assert block.symbolic_theta() == expected


def test_existential_block_claim_clauses_example():
    problem, psi1, psi2 = example_problem()
    block = ScopeAbstraction.build(problem, 2)
    assert block.quantifier is Quantifier.EXISTS
    assert block.incoming == (psi1, psi2)
    assert block.exposed == ()
    y = 2
    expected = {
        clause(pos("outer", psi1), pos("claim", psi2)),
        clause(neg("claim", psi2), pos("outer", psi2)),
        clause(neg("claim", psi2), pos("var", y)),
    }
    assert block.symbolic_theta() == expected
    # psi1 is never claimed on this side, so it gets no constraints at all
    assert not any(tag == "claim" and key == psi1
                   for cl in block.symbolic_theta() for (_, tag, key) in cl)


def test_existential_block_challenger_clauses_example():
    problem, psi1, psi2 = example_problem()
    block = ScopeAbstraction.build(problem, 2)
    y = 2
    expected = {
        clause(pos("claim", psi1)),
        clause(neg("claim", psi1), pos("outer", psi1)),
        clause(neg("claim", psi1), pos("claim", psi2)),
        clause(neg("claim", psi2), pos("outer", psi2), neg("var", y)),
    }
    assert block.symbolic_dual() == expected


def test_parity_universal_block_clauses():
    problem = parse_qcir(PARITY2_QCIR)
    root = problem.matrix
    c1, c2 = problem.arena.payload[root]
    influence = compute_influence(problem)
    assert influence.interface[1] == (root, c1, c2)
    block = ScopeAbstraction.build(problem, 2)
    z = 3
    expected = {
        clause(pos("claim", c1), pos("claim", c2)),
        clause(neg("claim", c1), neg("var", z)),
        clause(neg("claim", c1), pos("outer", c1)),
        clause(neg("claim", c2), pos("var", z)),
        clause(neg("claim", c2), pos("outer", c2)),
    }
    assert block.symbolic_theta() == expected
    # the matrix root sits on the interface but no clause ever consults it
    assert not any(key == root for cl in block.symbolic_theta()
                   for (_, tag, key) in cl if tag == "outer")


def test_chaining_clause_links_claim_to_outer():
    problem, psi1, psi2 = example_problem()
    block = ScopeAbstraction.build(problem, 2)
    assert clause(neg("claim", psi2), pos("outer", psi2)) in block.symbolic_theta()


def test_variable_numbering_stays_mirrored():
    problem, psi1, psi2 = example_problem()
    for k in (1, 2):
        block = ScopeAbstraction.build(problem, k)
        assert block.theta.nvars == block.dual.nvars
    block = ScopeAbstraction.build(problem, 1)
    block.refine([psi1])
    block.refine_dual({psi1: True, psi2: False})
    assert block.dual.db[-1] == (block.claim[psi2],)
    assert block.theta.nvars == block.dual.nvars


def test_assumption_builders():
    problem, psi1, psi2 = example_problem()
    block = ScopeAbstraction.build(problem, 2)
    t1, t2 = block.outer_sat[psi1], block.outer_sat[psi2]
    assert block.theta_assumptions({psi1: True, psi2: False}) == [t1, -t2]
    lits = block.dual_assumptions({2: True}, {psi1: False, psi2: True})
    assert lits == [block.x_var[2], t1, -t2]
    with pytest.raises(InternalError):
        block.theta_assumptions({psi1: True})


def test_core_maps_back_to_interface_nodes():
    problem, psi1, psi2 = example_problem()
    block = ScopeAbstraction.build(problem, 2)
    granted = {psi1: False, psi2: False}
    result = block.theta.solve(block.theta_assumptions(granted))
    assert not result.sat
    witness = block.witness_from_core(result.failed, granted)
    assert witness == granted


def test_refine_blocks_an_exposed_assignment():
    problem, psi1, psi2 = example_problem()
    block = ScopeAbstraction.build(problem, 1)
    result = block.theta.solve([])
    assert result.sat
    assert block.exposed_claims(result.model) == {psi1: True, psi2: False}
    block.refine([psi2])
    assert block.refinement_count == 1
    result = block.theta.solve([])
    assert not result.sat  # claiming psi2 needs x true, the rest x false


def test_refine_rejects_unknown_nodes():
    problem, psi1, psi2 = example_problem()
    block = ScopeAbstraction.build(problem, 2)  # nothing exposed inward
    with pytest.raises(InternalError):
        block.refine([psi1])


def test_refinement_budget_watchdog():
    problem, psi1, psi2 = example_problem()
    block = ScopeAbstraction.build(problem, 1)
    for _ in range(4):  # two exposed nodes allow at most 2**2 refinements
        block.refine([psi1, psi2])
    with pytest.raises(InternalError):
        block.refine([psi1])


def test_maximize_claims_raises_what_it_can():
    problem, psi1, psi2 = example_problem()
    block = ScopeAbstraction.build(problem, 2)
    y = block.x_var[2]
    t1, t2 = block.outer_sat[psi1], block.outer_sat[psi2]
    b2 = block.claim[psi2]
    model = [0] * (block.theta.nvars + 1)
    model[y] = model[t1] = model[t2] = 1
    adjusted = block.maximize_claims(model)
    assert adjusted[b2] == 1
    assert model[b2] == 0  # input untouched


def test_maximize_claims_rejects_broken_models():
    problem, psi1, psi2 = example_problem()
    block = ScopeAbstraction.build(problem, 2)
    model = [0] * (block.theta.nvars + 1)
    with pytest.raises(InternalError):
        block.maximize_claims(model)


def test_claims_only_rise_under_maximization():
    rng = random.Random(7)
    checked = 0
    while checked < 60:
        problem = random_problem(rng)
        if problem.matrix_constant() is not None:
            continue
        influence = compute_influence(problem)
        top = influence.max_scope[problem.matrix]
        for k in range(1, top + 1):
            block = ScopeAbstraction.build(problem, k, influence)
            assert block.theta.nvars == block.dual.nvars
            granted = {n: True for n in block.incoming}
            result = block.theta.solve(block.theta_assumptions(granted))
            if not result.sat:
                continue
            adjusted = block.maximize_claims(result.model)
            for sv in block.claim.values():
                assert adjusted[sv] >= result.model[sv]
        checked += 1


def test_outer_references_stay_on_the_interface():
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        problem = random_problem(rng)
        if problem.matrix_constant() is not None:
            continue
        influence = compute_influence(problem)
        top = influence.max_scope[problem.matrix]
        for k in range(1, top + 1):
            block = ScopeAbstraction.build(problem, k, influence)
            allowed = set(block.incoming)
            for symbolic in (block.symbolic_theta(), block.symbolic_dual()):
                for cl in symbolic:
                    for sign, tag, key in cl:
                        if tag == "outer":
                            assert key in allowed and sign
        checked += 1


def test_build_is_deterministic():
    problem, psi1, psi2 = example_problem()
    a = ScopeAbstraction.build(problem, 2)
    b = ScopeAbstraction.build(problem, 2)
    assert a.theta.db == b.theta.db
    assert a.dual.db == b.dual.db
    assert a.legend() == b.legend()



def test_block_abstractions_stay_small_on_expansion_hard():
    # A block sees its interface and its own variables, a bounded number on
    # this family; what only inner blocks decide must not add to it
    for n in (32, 64, 128):
        problem, _ = preprocess(gen_expansion_hard(n))
        influence = compute_influence(problem)
        sizes = [ScopeAbstraction.build(problem, k, influence).theta.nvars
                 for k in range(1, problem.scope_count + 1)]
        assert max(sizes) <= 16
        assert sum(sizes) <= 16 * problem.scope_count

def test_constant_matrix_has_no_influence():
    problem = parse_qcir("#QCIR-G14\noutput(g)\ng = and()\n")
    with pytest.raises(ValueError):
        compute_influence(problem)


def test_debug_dump_mentions_every_variable():
    problem, psi1, psi2 = example_problem()
    block = ScopeAbstraction.build(problem, 2)
    dump = block.debug_dump()
    assert "x y" in dump
    assert f"outer n{psi1}" in dump
    assert "p cnf" in dump


def numbering_digest(problems):
    """SHA-256 over the clauses, legend and interfaces of every block the
    solver can build, with the SAT numbering exactly as allocated."""
    digest = hashlib.sha256()
    for problem in problems:
        influence = compute_influence(problem)
        for k in range(1, influence.max_scope[problem.matrix] + 1):
            block = ScopeAbstraction.build(problem, k, influence)
            assert block.theta.nvars == block.dual.nvars
            legend = block.legend()
            assert set(legend) == set(range(1, block.theta.nvars + 1))
            digest.update(repr((block.theta.db, block.dual.db,
                                sorted(legend.items()), block.incoming,
                                block.exposed)).encode())
    return digest.hexdigest()


def test_block_numbering_golden():
    # Guards the SAT variable numbering and clause order of every block:
    # both decide the search the solver makes.
    rng = random.Random(31)
    randoms = []
    while len(randoms) < 20:
        reduced, _ = preprocess(random_problem(rng, impure=True))
        if reduced.matrix_constant() is None:
            randoms.append(reduced)
    fixed = [example_problem()[0], gen_qparity(3), gen_expansion_hard(2)]
    assert numbering_digest(fixed) == (
        "d9318811fceda9afc0a46bfad76c2134ef6a1b1cb33b56df6c97e9b4aff9e1a0")
    assert numbering_digest(randoms) == (
        "e8b9c34ef5c85df37822741f790d61a07e25551e0b7d876e00f2e2b1580690de")


def test_claim_maximization_is_done_in_one_pass():
    # a second pass over the maximized model raises nothing more
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        problem = random_problem(rng, max_vars=8, max_budget=30, impure=True)
        if problem.matrix_constant() is not None:
            continue
        influence = compute_influence(problem)
        for k in range(1, influence.max_scope[problem.matrix] + 1):
            block = ScopeAbstraction.build(problem, k, influence)
            granted = {n: rng.random() < 0.5 for n in block.incoming}
            result = block.theta.solve(block.theta_assumptions(granted))
            if result.sat:
                once = block.maximize_claims(result.model)
                assert block.maximize_claims(once) == once
        checked += 1
