"""Tests for the CNF formulas the solver tests build."""

import pytest

from repro.core import SolverError

from tests.solvers._cnf_reference import CNF


class TestCNF:
    def test_add_clause_tracks_variables(self):
        cnf = CNF()
        cnf.add_clause([1, -3])
        assert cnf.num_variables == 3
        assert len(cnf) == 1

    def test_zero_literal_rejected(self):
        cnf = CNF()
        with pytest.raises(SolverError):
            cnf.add_clause([1, 0])

    def test_duplicate_literals_removed(self):
        cnf = CNF([[1, 1, 2]])
        assert cnf.clauses[0] == (1, 2)

    def test_empty_clause_detection(self):
        cnf = CNF()
        cnf.add_clause([])
        assert cnf.has_empty_clause()

    def test_copy_and_extended_are_independent(self):
        cnf = CNF([[1, 2]])
        extended = cnf.extended([[3]])
        assert len(cnf) == 1
        assert len(extended) == 2
        clone = cnf.copy()
        clone.add_clause([4])
        assert len(cnf) == 1

    def test_num_variables_cannot_shrink(self):
        cnf = CNF([[1, 5]])
        with pytest.raises(SolverError):
            cnf.num_variables = 2
        cnf.num_variables = 10
        assert cnf.num_variables == 10

    def test_variables_set(self):
        cnf = CNF([[1, -2], [3]])
        assert cnf.variables() == {1, 2, 3}


class TestEvaluation:
    def test_full_assignment(self):
        cnf = CNF([[1, 2], [-1, 3]])
        assert cnf.evaluate({1: True, 2: False, 3: True}) is True
        assert cnf.evaluate({1: True, 2: False, 3: False}) is False

    def test_partial_assignment_returns_none(self):
        cnf = CNF([[1, 2]])
        assert cnf.evaluate({1: False}) is None

    def test_partial_assignment_can_still_falsify(self):
        cnf = CNF([[1], [2]])
        assert cnf.evaluate({1: False}) is False
