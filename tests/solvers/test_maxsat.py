"""Tests for the group MaxSAT solver."""

import pytest

from repro.core import SolverError
from repro.solvers import ArenaSession, solve_group_maxsat

from tests.solvers._cnf_reference import CNF, solve


def session_holding(hard: CNF) -> ArenaSession:
    """An arena session loaded with the hard clauses."""
    session = ArenaSession()
    session.load_clauses(hard.clauses, hard.num_variables)
    return session


class TestGroupMaxSAT:
    def test_unsatisfiable_hard_clauses(self):
        hard = CNF([[1], [-1]])
        result = solve_group_maxsat(session_holding(hard), [[2]])
        assert not result.hard_satisfiable
        assert result.selected_groups == ()

    def test_no_groups(self):
        result = solve_group_maxsat(session_holding(CNF([[1]])), [])
        assert result.hard_satisfiable
        assert result.selected_groups == ()

    def test_all_groups_compatible(self):
        hard = CNF([[1, 2]])
        result = solve_group_maxsat(session_holding(hard), [[1], [2]])
        assert set(result.selected_groups) == {0, 1}

    def test_conflicting_groups_drop_one(self):
        hard = CNF([[1, 2]])
        # Groups assert x1 and ¬x1: only one can be kept.
        result = solve_group_maxsat(session_holding(hard), [[1], [-1]])
        assert len(result.selected_groups) == 1

    def test_group_conflicting_with_hard_clauses_is_dropped(self):
        hard = CNF([[1], [2]])
        result = solve_group_maxsat(session_holding(hard), [[-1], [2]])
        assert result.selected_groups == (1,)

    def test_multi_literal_groups_are_atomic(self):
        hard = CNF([[1, 2], [-3]])
        # The first group needs both x1 and x3; x3 is impossible, so the whole group drops.
        result = solve_group_maxsat(session_holding(hard), [[1, 3], [2]])
        assert result.selected_groups == (1,)

    def test_exact_beats_greedy_ordering_traps(self):
        # Greedy keeps group 0 first and then cannot keep 1 and 2; exact keeps {1, 2}.
        hard = CNF([[1, 2, 3]])
        groups = [[1, -2, -3], [2], [3]]
        exact = solve_group_maxsat(session_holding(hard), groups, strategy="exact")
        greedy = solve_group_maxsat(session_holding(hard), groups, strategy="greedy")
        assert len(exact.selected_groups) == 2
        assert set(exact.selected_groups) == {1, 2}
        assert len(greedy.selected_groups) <= len(exact.selected_groups)

    def test_greedy_strategy_returns_consistent_subset(self):
        hard = CNF([[1, 2]])
        result = solve_group_maxsat(session_holding(hard), [[1], [-1], [2]], strategy="greedy")
        # Whatever is kept must be jointly satisfiable with the hard clauses.
        literals = [lit for index in result.selected_groups for lit in ([[1], [-1], [2]][index])]
        assert solve(hard, assumptions=literals).satisfiable

    @pytest.mark.parametrize("strategy", ["exact", "greedy"])
    def test_assumptions_bind_every_probe(self, strategy):
        # The guard idiom of the incremental encoder: x9 → ¬x1 binds every
        # probe while the guard x9 is assumed, and none once it is not (a
        # retired guard), even on the same session.
        session = session_holding(CNF([[-9, -1]]))
        guarded = solve_group_maxsat(session, [[1], [2]], strategy=strategy, assumptions=[9])
        assert guarded.selected_groups == (1,)
        retired = solve_group_maxsat(session, [[1], [2]], strategy=strategy)
        assert set(retired.selected_groups) == {0, 1}

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SolverError):
            solve_group_maxsat(session_holding(CNF([[1]])), [[1]], strategy="magic")

    def test_sat_call_counter_increases(self):
        result = solve_group_maxsat(session_holding(CNF([[1, 2]])), [[1], [-1]])
        assert result.sat_calls >= 2
        assert len(result) == len(result.selected_groups)
