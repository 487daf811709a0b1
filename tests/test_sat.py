"""Tests for the CDCL solver: models, cores, incrementality."""

import random

import pytest

from qbfkit.sat import Solver, SolveResult


def new_solver(nvars, clauses=()):
    s = Solver()
    for _ in range(nvars):
        s.fresh_var()
    for c in clauses:
        s.add_clause(c)
    return s


def random_cnf(rng, nvars, nclauses, width=3):
    clauses = []
    for _ in range(nclauses):
        size = rng.randint(1, width)
        vs = rng.sample(range(1, nvars + 1), min(size, nvars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def cnf_models(nvars, clauses):
    """Truth table over all 2**nvars assignments (bit v-1 of the row is
    variable v): which rows satisfy the CNF."""
    return [all(any(((row >> (abs(lit) - 1)) & 1) == (lit > 0)
                    for lit in clause)
                for clause in clauses)
            for row in range(2 ** nvars)]


def check_model(res, clauses):
    assert res.sat
    for clause in clauses:
        assert any(res.model_value(lit) == 1 for lit in clause)


# ----------------------------------------------------------------------
# basics


def test_empty_solver_is_sat():
    s = Solver()
    res = s.solve()
    assert res.sat
    assert res.model == [0]


def test_unit_propagation_chain():
    s = new_solver(3, [[1], [-1, 2], [-2, 3]])
    res = s.solve()
    assert res.sat
    assert res.model[1:] == [1, 1, 1]


def test_contradictory_units_make_solver_unsat():
    s = new_solver(1, [[1], [-1]])
    res = s.solve()
    assert not res.sat
    assert res.failed == ()
    # the solver stays Unsat from then on
    assert not s.solve([1]).sat


def test_model_found_by_search():
    clauses = [[1, 2], [-1, 3], [-2, 3], [-3, 1, 2]]
    s = new_solver(3, clauses)
    check_model(s.solve(), clauses)


def test_add_clause_rejects_bad_literals():
    s = new_solver(2)
    with pytest.raises(ValueError):
        s.add_clause([1, 0])
    with pytest.raises(ValueError):
        s.add_clause([3])
    with pytest.raises(ValueError):
        s.solve([5])


def test_tautology_and_duplicates_are_harmless():
    s = new_solver(2, [[1, -1], [2, 2]])
    res = s.solve()
    assert res.sat
    assert res.model[2] == 1


# ----------------------------------------------------------------------
# assumptions and cores


def test_assumption_drives_model():
    s = new_solver(2, [[1, 2]])
    res = s.solve([-1])
    assert res.sat
    assert res.model_value(-1) == 1
    assert res.model[2] == 1
    # same solver, opposite assumption
    res = s.solve([-2])
    assert res.sat
    assert res.model[1] == 1


def test_complementary_assumptions():
    s = new_solver(1)
    res = s.solve([1, -1])
    assert not res.sat
    assert set(res.failed) == {1, -1}


def test_failed_assumptions_are_a_core():
    s = new_solver(3, [[-1, -2]])
    res = s.solve([3, 1, 2])
    assert not res.sat
    assert set(res.failed) <= {3, 1, 2}
    assert not s.solve(res.failed).sat
    # each assumption alone is fine
    assert s.solve([1]).sat
    assert s.solve([2]).sat


def test_core_via_root_implication():
    # the database alone forces -2; assuming 2 must fail with core {2}
    s = new_solver(2, [[1], [-1, -2]])
    res = s.solve([2])
    assert not res.sat
    assert res.failed == (2,)


def test_incremental_clause_addition():
    s = new_solver(2)
    assert s.solve([1, 2]).sat
    s.add_clause([-1, -2])
    res = s.solve([1, 2])
    assert not res.sat
    assert s.solve([1]).sat
    s.add_clause([-1])
    assert s.solve([2]).sat
    assert not s.solve([1]).sat


def test_core_property_random(seed=0):
    rng = random.Random(seed)
    for _ in range(80):
        nv = rng.randint(3, 9)
        clauses = random_cnf(rng, nv, rng.randint(nv, 3 * nv))
        s = new_solver(nv, clauses)
        assumps = [v if rng.random() < 0.5 else -v
                   for v in rng.sample(range(1, nv + 1), rng.randint(1, nv))]
        res = s.solve(assumps)
        if res.sat:
            check_model(res, clauses)
            for a in assumps:
                assert res.model_value(a) == 1
        else:
            assert res.failed is not None
            assert set(res.failed) <= set(assumps)
            again = s.solve(res.failed)
            assert not again.sat


# ----------------------------------------------------------------------
# differential against a truth table


def test_against_truth_table_oracle(seed=1):
    rng = random.Random(seed)
    for _ in range(120):
        nv = rng.randint(2, 8)
        clauses = random_cnf(rng, nv, rng.randint(1, 4 * nv))
        expected = cnf_models(nv, clauses)
        s = new_solver(nv, clauses)
        res = s.solve()
        assert res.sat == any(expected)
        if res.sat:
            check_model(res, clauses)
            row = sum((res.model[v] << (v - 1)) for v in range(1, nv + 1))
            assert expected[row]


def test_assumption_results_match_conditioned_table(seed=2):
    rng = random.Random(seed)
    for _ in range(60):
        nv = rng.randint(2, 7)
        clauses = random_cnf(rng, nv, rng.randint(1, 3 * nv))
        assumps = [v if rng.random() < 0.5 else -v
                   for v in rng.sample(range(1, nv + 1), rng.randint(1, nv))]
        conditioned = clauses + [[a] for a in assumps]
        expected = cnf_models(nv, conditioned)
        s = new_solver(nv, clauses)
        res = s.solve(assumps)
        assert res.sat == any(expected)


def test_determinism():
    def run():
        rng = random.Random(7)
        s = new_solver(8, random_cnf(rng, 8, 20))
        outcomes = []
        for _ in range(10):
            assumps = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, 9), 3)]
            r = s.solve(assumps)
            outcomes.append((r.sat, tuple(r.model or ()), r.failed))
        return outcomes

    assert run() == run()


# ----------------------------------------------------------------------
# incremental differential


def truth_table_rows(nvars):
    """For each literal, the rows of the truth table (bit v-1 of row r is
    variable v) that make it true, as the bits of one integer."""
    full = (1 << 2 ** nvars) - 1
    rows = {}
    for v in range(1, nvars + 1):
        half = 1 << (v - 1)
        period = ((1 << half) - 1) << half  # true on half of 2**v rows
        pos = period * (full // ((1 << 2 * half) - 1))
        rows[v], rows[-v] = pos, full ^ pos
    return rows, full


def random_3cnf(rng, nvars, nclauses):
    return [[v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, nvars + 1), 3)]
            for _ in range(nclauses)]


def rows_satisfying(rows, clause):
    out = 0
    for lit in clause:
        out |= rows[lit]
    return out


def test_incremental_solver_against_brute_force(seed=4):
    # 3-CNF near the satisfiability threshold, so that searches backjump;
    # each solver answers four assumption queries and gains a clause after
    # each one. `models` is the bit set of rows that satisfy every clause.
    rng = random.Random(seed)
    for _ in range(600):
        nv = rng.randint(8, 14)
        rows, full = truth_table_rows(nv)
        clauses = random_3cnf(rng, nv, rng.randint(3 * nv, 5 * nv))
        s = new_solver(nv, clauses)
        models = full
        for clause in clauses:
            models &= rows_satisfying(rows, clause)
        for _ in range(4):
            assumps = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, nv + 1),
                                           rng.randint(0, 3))]
            res = s.solve(assumps)
            conditioned = models
            for a in assumps:
                conditioned &= rows[a]
            assert res.sat == (conditioned != 0)
            if res.sat:
                check_model(res, clauses + [[a] for a in assumps])
            else:
                assert set(res.failed) <= set(assumps)
                core = models
                for a in res.failed:
                    core &= rows[a]
                assert core == 0
            clause = random_3cnf(rng, nv, 1)[0]
            s.add_clause(clause)
            clauses.append(clause)
            models &= rows_satisfying(rows, clause)


def test_activity_rescale_keeps_decisions_in_activity_order():
    s = new_solver(4)
    s.activity[1:] = [3.0, 0.0, 0.0, 3.0]
    s.solve()  # decides every variable, then queues all four again
    s.var_inc = 1e101
    s._bump(2)  # passes 1e100, so every activity is scaled by 1e-100
    assert s.activity[2] > s.activity[1] == s.activity[4] > s.activity[3]
    assert [s._pick_branch_var() for _ in range(4)] == [2, 1, 4, 3]
