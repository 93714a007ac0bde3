"""Tests for the incremental solver sessions and the backend registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SolverError
from repro.solvers import (
    CNF,
    ArenaSession,
    DPLLSession,
    SolverSession,
    available_backends,
    create_session,
    dpll_solve,
    register_backend,
)


class TestBackendRegistry:
    def test_arena_resolves_by_name(self):
        session = create_session("arena")
        assert isinstance(session, ArenaSession)
        assert session.backend == "arena"
        assert session.reuses_clauses

    def test_dpll_resolves_by_name(self):
        session = create_session("dpll")
        assert isinstance(session, DPLLSession)
        assert session.backend == "dpll"
        assert not session.reuses_clauses

    def test_default_backend_is_arena(self):
        assert isinstance(create_session(), ArenaSession)

    def test_unknown_backend_raises(self):
        with pytest.raises(SolverError, match="unknown solver backend"):
            create_session("minisat")

    def test_registry_lists_builtin_backends(self):
        assert available_backends() == ("arena", "dpll")

    def test_custom_backend_registration(self):
        class EchoSession(DPLLSession):
            backend = "echo"

        register_backend("echo", EchoSession)
        try:
            assert isinstance(create_session("echo"), EchoSession)
            assert "echo" in available_backends()
        finally:
            import repro.solvers.session as session_module

            session_module._BACKENDS.pop("echo", None)


@pytest.mark.parametrize("backend", ["arena", "dpll"])
class TestSessionSemantics:
    def test_empty_session_is_satisfiable(self, backend):
        assert create_session(backend).solve().satisfiable

    def test_assumption_conflict_is_per_call(self, backend):
        session = create_session(backend)
        session.add_clauses([[1, 2], [-1, 2]])
        # UNSAT under the assumption ¬2, but the formula itself stays SAT.
        assert not session.solve(assumptions=[-2]).satisfiable
        assert session.solve(assumptions=[2]).satisfiable
        assert session.solve().satisfiable

    def test_contradictory_assumptions(self, backend):
        session = create_session(backend)
        session.add_clause([1, 2])
        assert not session.solve(assumptions=[1, -1]).satisfiable
        assert session.solve().satisfiable

    def test_clauses_persist_across_solve_calls(self, backend):
        session = create_session(backend)
        session.add_clause([1, 2])
        first = session.solve(assumptions=[-1])
        assert first.satisfiable and first.model[2] is True
        # New clauses added after a solve() are honoured by the next one.
        session.add_clause([-2])
        second = session.solve()
        assert second.satisfiable and second.model[1] is True and second.model[2] is False
        session.add_clause([-1])
        assert not session.solve().satisfiable

    def test_assumptions_on_fresh_variables(self, backend):
        session = create_session(backend)
        session.add_clause([1])
        result = session.solve(assumptions=[7])
        assert result.satisfiable
        assert result.model[7] is True

    def test_statistics_track_solve_calls(self, backend):
        session = create_session(backend)
        session.add_clauses([[1, 2], [2, 3]])
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

        session = create_session("arena")
        for i in range(4):
            session.add_clause([var(i, h) for h in range(3)])
        for h in range(3):
            for i in range(4):
                for j in range(i + 1, 4):
                    session.add_clause([-var(i, h), -var(j, h)])
        clauses = session.solver.num_clauses
        assert not session.solve().satisfiable
        assert session.statistics()["conflicts"] > 0
        assert session.solver.num_learned_clauses == 0
        assert session.solver.num_clauses == clauses

    def test_incremental_solves_reuse_clauses(self):
        session = create_session("arena")
        session.add_clauses([[-1, 2], [-2, 3], [-3, 4]])
        session.solve(assumptions=[1])
        session.add_clause([-4, 5])
        session.solve(assumptions=[1])
        stats = session.statistics()
        assert stats["cold_solves"] == 1
        assert stats["incremental_solves"] == 1
        # The second call reused the three clauses loaded before the first.
        assert stats["clauses_reused"] >= 3

    def test_unsat_under_assumptions_leaves_propagation_unchanged(self):
        session = create_session("arena")
        session.add_clauses([[1, 2], [-1, 2]])
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
    session = create_session("arena")
    session.ensure_variables(num_variables)
    accumulated = CNF(num_variables=num_variables)
    for clauses, assumptions in batches:
        session.add_clauses(clauses)
        accumulated.add_clauses(clauses)
        incremental = session.solve(assumptions)
        reference = dpll_solve(accumulated, assumptions)
        assert incremental.satisfiable == reference.satisfiable
        if incremental.satisfiable:
            extended = accumulated.extended([[lit] for lit in assumptions])
            assert extended.evaluate(incremental.model) is True
