"""Tests for the incremental solver sessions, with the DPLL session as the reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import ArenaSession

from tests.solvers._cnf_reference import CNF
from tests.solvers._dpll_reference import DPLLSession, dpll_solve


@pytest.mark.parametrize("session_type", [ArenaSession, DPLLSession], ids=["arena", "dpll"])
class TestSessionSemantics:
    def test_empty_session_is_satisfiable(self, session_type):
        assert session_type().solve().satisfiable

    def test_assumption_conflict_is_per_call(self, session_type):
        session = session_type()
        session.load_clauses([[1, 2], [-1, 2]], 0)
        # UNSAT under the assumption ¬2, but the formula itself stays SAT.
        assert not session.solve(assumptions=[-2]).satisfiable
        assert session.solve(assumptions=[2]).satisfiable
        assert session.solve().satisfiable

    def test_contradictory_assumptions(self, session_type):
        session = session_type()
        session.load_clauses([[1, 2]], 0)
        assert not session.solve(assumptions=[1, -1]).satisfiable
        assert session.solve().satisfiable

    def test_clauses_persist_across_solve_calls(self, session_type):
        session = session_type()
        session.load_clauses([[1, 2]], 0)
        first = session.solve(assumptions=[-1])
        assert first.satisfiable and first.model[2] is True
        # New clauses added after a solve() are honoured by the next one.
        session.load_clauses([[-2]], 0)
        second = session.solve()
        assert second.satisfiable and second.model[1] is True and second.model[2] is False
        session.load_clauses([[-1]], 0)
        assert not session.solve().satisfiable

    def test_assumptions_on_fresh_variables(self, session_type):
        session = session_type()
        session.load_clauses([[1]], 0)
        result = session.solve(assumptions=[7])
        assert result.satisfiable
        assert result.model[7] is True

    def test_statistics_track_solve_calls(self, session_type):
        session = session_type()
        session.load_clauses([[1, 2], [2, 3]], 0)
        session.solve()
        session.solve(assumptions=[-2])
        stats = session.statistics()
        assert stats["solve_calls"] == 2
        assert stats["clauses_added"] == 2
        assert stats["cold_solves"] + stats["incremental_solves"] == 2


class TestCDCLRetention:
    def test_learned_clauses_are_forgotten(self):
        """A solve learns, then leaves the clause database as it found it."""
        # Pigeonhole (4 pigeons / 3 holes) forces genuine clause learning.
        def var(i, h):
            return 3 * i + h + 1

        session = ArenaSession()
        for i in range(4):
            session.load_clauses([[var(i, h) for h in range(3)]], 0)
        for h in range(3):
            for i in range(4):
                for j in range(i + 1, 4):
                    session.load_clauses([[-var(i, h), -var(j, h)]], 0)
        clauses = session.solver.num_clauses
        assert not session.solve().satisfiable
        assert session.statistics()["conflicts"] > 0
        assert session.solver.num_learned_clauses == 0
        assert session.solver.num_clauses == clauses

    def test_incremental_solves_reuse_clauses(self):
        session = ArenaSession()
        session.load_clauses([[-1, 2], [-2, 3], [-3, 4]], 0)
        session.solve(assumptions=[1])
        session.load_clauses([[-4, 5]], 0)
        session.solve(assumptions=[1])
        stats = session.statistics()
        assert stats["cold_solves"] == 1
        assert stats["incremental_solves"] == 1
        # The second call reused the three clauses loaded before the first.
        assert stats["clauses_reused"] >= 3

    def test_unsat_under_assumptions_leaves_propagation_unchanged(self):
        session = ArenaSession()
        session.load_clauses([[1, 2], [-1, 2]], 0)
        before = session.propagate()
        assert not session.solve(assumptions=[-2]).satisfiable
        # The refutation learned that 2 is forced, but unit propagation over
        # the formula alone does not force it, and propagate stays that way.
        assert session.propagate() == before == ([], False)
        result = session.solve()
        assert result.satisfiable and result.model[2] is True


# -- property-based cross-check: incremental arena vs. from-scratch DPLL --------


@st.composite
def clause_batches(draw):
    num_variables = draw(st.integers(1, 6))
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        clauses = []
        for _ in range(draw(st.integers(1, 8))):
            width = draw(st.integers(1, 3))
            clauses.append(
                [
                    draw(st.integers(1, num_variables)) * draw(st.sampled_from([1, -1]))
                    for _ in range(width)
                ]
            )
        assumptions = draw(
            st.lists(
                st.integers(-num_variables, num_variables).filter(lambda x: x != 0),
                max_size=2,
            )
        )
        batches.append((clauses, assumptions))
    return num_variables, batches


@given(clause_batches())
@settings(max_examples=60, deadline=None)
def test_incremental_session_agrees_with_from_scratch(payload):
    """After every batch of added clauses, the incremental arena session and a
    fresh DPLL solve of the accumulated formula agree on satisfiability."""
    num_variables, batches = payload
    session = ArenaSession()
    session.load_clauses([], num_variables)
    accumulated = CNF(num_variables=num_variables)
    for clauses, assumptions in batches:
        session.load_clauses(clauses, num_variables)
        accumulated.add_clauses(clauses)
        incremental = session.solve(assumptions)
        reference = dpll_solve(accumulated, assumptions)
        assert incremental.satisfiable == reference.satisfiable
        if incremental.satisfiable:
            extended = accumulated.extended([[lit] for lit in assumptions])
            assert extended.evaluate(incremental.model) is True
