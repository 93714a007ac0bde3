"""Tests for CNF formulas, literals and DIMACS I/O."""

import pytest

from repro.core import SolverError
from repro.solvers import CNF, VariablePool


class TestVariablePool:
    def test_allocation_is_sequential(self):
        pool = VariablePool()
        assert pool.new_variable() == 1
        assert pool.new_variable() == 2
        assert pool.count == 2

    def test_labels_round_trip(self):
        pool = VariablePool()
        variable = pool.new_variable(label="x")
        assert pool.label(variable) == "x"
        assert pool.label(999) is None
        assert pool.labels() == {variable: "x"}


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


class TestDimacs:
    def test_round_trip(self):
        original = CNF([[1, -2], [3], [-1, -3, 2]])
        text = original.to_dimacs()
        parsed = CNF.from_dimacs(text)
        assert parsed.clauses == original.clauses
        assert parsed.num_variables == original.num_variables

    def test_parse_ignores_comments(self):
        text = "c a comment\np cnf 3 1\n1 -2 0\n"
        cnf = CNF.from_dimacs(text)
        assert cnf.clauses == ((1, -2),)
        assert cnf.num_variables == 3

    def test_parse_rejects_malformed_header(self):
        with pytest.raises(SolverError):
            CNF.from_dimacs("p wrong 3\n1 0\n")
