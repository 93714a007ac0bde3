"""Tests for the reference DPLL solver."""

from tests.solvers._cnf_reference import CNF
from tests.solvers._dpll_reference import dpll_solve


class TestDPLL:
    def test_empty_formula(self):
        assert dpll_solve(CNF()).satisfiable

    def test_unit_formula(self):
        result = dpll_solve(CNF([[2]]))
        assert result.satisfiable
        assert result.model[2] is True

    def test_unsat_units(self):
        assert not dpll_solve(CNF([[1], [-1]])).satisfiable

    def test_simple_branching(self):
        cnf = CNF([[1, 2], [-1, 2], [1, -2]])
        result = dpll_solve(cnf)
        assert result.satisfiable
        assert cnf.evaluate(result.model) is True

    def test_unsat_after_branching(self):
        cnf = CNF([[1, 2], [-1, 2], [1, -2], [-1, -2]])
        assert not dpll_solve(cnf).satisfiable

    def test_assumptions_respected(self):
        cnf = CNF([[1, 2]])
        result = dpll_solve(cnf, assumptions=[-1])
        assert result.satisfiable
        assert result.model[2] is True

    def test_conflicting_assumptions(self):
        assert not dpll_solve(CNF([[1, 2]]), assumptions=[1, -1]).satisfiable

    def test_model_covers_all_variables(self):
        cnf = CNF([[1]], num_variables=4)
        result = dpll_solve(cnf)
        assert set(result.model) == {1, 2, 3, 4}
