"""Tests for the CDCL SAT solver (the arena), including property-based cross-checks against DPLL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SolverError

from tests.solvers._cnf_reference import CNF, loaded, solve
from tests.solvers._dpll_reference import dpll_solve


def assert_model_satisfies(cnf: CNF, model: dict) -> None:
    assert cnf.evaluate(model) is True


class TestSimpleFormulas:
    def test_empty_formula_is_satisfiable(self):
        assert solve(CNF()).satisfiable

    def test_single_unit(self):
        result = solve(CNF([[1]]))
        assert result.satisfiable
        assert result.model[1] is True

    def test_contradictory_units(self):
        assert not solve(CNF([[1], [-1]])).satisfiable

    def test_empty_clause_is_unsat(self):
        cnf = CNF()
        cnf.add_clause([])
        assert not solve(cnf).satisfiable

    def test_tautological_clause_ignored(self):
        assert solve(CNF([[1, -1]])).satisfiable

    def test_small_satisfiable_formula(self):
        cnf = CNF([[1, 2], [-1, 3], [-2, -3], [2, 3]])
        result = solve(cnf)
        assert result.satisfiable
        assert_model_satisfies(cnf, result.model)

    def test_pigeonhole_unsat(self):
        # 3 pigeons in 2 holes: variables p_{i,h} = 2*i + h + 1.
        clauses = []
        def var(i, h):
            return 2 * i + h + 1
        for i in range(3):
            clauses.append([var(i, 0), var(i, 1)])
        for h in range(2):
            for i in range(3):
                for j in range(i + 1, 3):
                    clauses.append([-var(i, h), -var(j, h)])
        assert not solve(CNF(clauses)).satisfiable

    def test_chain_of_implications(self):
        # x1 → x2 → ... → x20, with x1 forced true and x20 forced false: UNSAT.
        clauses = [[-i, i + 1] for i in range(1, 20)]
        clauses.append([1])
        clauses.append([-20])
        assert not solve(CNF(clauses)).satisfiable
        # Without the last unit the formula is satisfiable with all true.
        clauses.pop()
        result = solve(CNF(clauses))
        assert result.satisfiable
        assert all(result.model[i] for i in range(1, 21))


class TestAssumptions:
    def test_assumption_forces_polarity(self):
        cnf = CNF([[1, 2]])
        result = solve(cnf, assumptions=[-1])
        assert result.satisfiable
        assert result.model[2] is True

    def test_conflicting_assumptions(self):
        assert not solve(CNF([[1, 2]]), assumptions=[1, -1]).satisfiable

    def test_assumption_conflicts_with_formula(self):
        assert not solve(CNF([[1]]), assumptions=[-1]).satisfiable

    def test_assumption_on_fresh_variable(self):
        result = solve(CNF([[1]]), assumptions=[5])
        assert result.satisfiable
        assert result.model[5] is True

    def test_solver_is_reusable_across_assumption_calls(self):
        solver = loaded(CNF([[1, 2], [-1, 2]]))
        assert solver.solve(assumptions=[-2]).satisfiable is False
        assert solver.solve(assumptions=[2]).satisfiable is True
        assert solver.solve().satisfiable is True


class TestLimits:
    def test_conflict_limit_raises(self):
        # Pigeonhole with 5 pigeons / 4 holes needs many conflicts.
        clauses = []
        def var(i, h):
            return 4 * i + h + 1
        for i in range(5):
            clauses.append([var(i, h) for h in range(4)])
        for h in range(4):
            for i in range(5):
                for j in range(i + 1, 5):
                    clauses.append([-var(i, h), -var(j, h)])
        with pytest.raises(SolverError):
            solve(CNF(clauses), conflict_limit=3)


# -- property-based cross-check against DPLL ----------------------------------


@st.composite
def random_cnf(draw):
    num_variables = draw(st.integers(1, 8))
    num_clauses = draw(st.integers(1, 24))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(1, 3))
        clause = [
            draw(st.integers(1, num_variables)) * draw(st.sampled_from([1, -1]))
            for _ in range(width)
        ]
        clauses.append(clause)
    return CNF(clauses, num_variables=num_variables)


@given(random_cnf())
@settings(max_examples=80, deadline=None)
def test_cdcl_agrees_with_dpll(cnf):
    """CDCL and the reference DPLL solver agree on satisfiability, and CDCL models are real."""
    cdcl = solve(cnf)
    reference = dpll_solve(cnf)
    assert cdcl.satisfiable == reference.satisfiable
    if cdcl.satisfiable:
        assert cnf.evaluate(cdcl.model) is True


@given(random_cnf(), st.lists(st.integers(-8, 8).filter(lambda x: x != 0), max_size=3))
@settings(max_examples=60, deadline=None)
def test_cdcl_assumptions_agree_with_added_units(cnf, assumptions):
    """Solving under assumptions equals solving the formula with the assumptions as units."""
    with_assumptions = solve(cnf, assumptions=assumptions)
    augmented = cnf.extended([[lit] for lit in assumptions])
    assert with_assumptions.satisfiable == solve(augmented).satisfiable
