"""Solver budgets: clean BUDGET_EXCEEDED verdicts and reusable sessions."""

import pytest

from repro.core import TrueValueAssignment
from repro.core.errors import BudgetExceededError, ReproError, SolverError
from repro.encoding import IncrementalEncoder
from repro.resolution import check_validity, deduce_order, naive_deduce
from repro.resolution.suggest import suggest
from repro.solvers import ArenaSession, SolverBudget
from repro.solvers.arena import acquire_solver, release_solver

from tests.solvers._cnf_reference import CNF, loaded
from tests.solvers._dpll_reference import DPLLSession


def pigeonhole_cnf(pigeons=6, holes=5) -> CNF:
    """An UNSAT formula hard enough to burn conflicts before deciding."""
    def var(i, h):
        return holes * i + h + 1

    clauses = []
    for i in range(pigeons):
        clauses.append([var(i, h) for h in range(holes)])
    for h in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                clauses.append([-var(i, h), -var(j, h)])
    return CNF(clauses)


def pooled_solver_solve(cnf, budget=None):
    """A budgeted solve on a solver from the pool, where every session gets its solver."""
    solver = acquire_solver()
    try:
        solver.load_clauses(cnf.clauses, cnf.num_variables)
        return solver.solve(budget=budget)
    finally:
        release_solver(solver)


def fresh_solver_solve(cnf, budget=None):
    """A budgeted solve on a new solver."""
    return loaded(cnf).solve(budget=budget)


def recycled_solver_solve(cnf, budget=None):
    """A budgeted solve on a solver recycled the way the solver pool does it.

    The solver first burns conflicts on a harder formula; a budget checked
    against lifetime totals rather than this call's counters would trip at
    once on the recycled solver.
    """
    solver = loaded(pigeonhole_cnf(7, 6))
    assert solver.solve(budget=SolverBudget(max_conflicts=200)).budget_exceeded
    solver.reset()
    solver.load_clauses(cnf.clauses, cnf.num_variables)
    return solver.solve(budget=budget)


#: The pool may hand out a fresh or a recycled solver; the other two pin each.
BUDGETED_SOLVERS = pytest.mark.parametrize(
    "solver",
    [pooled_solver_solve, fresh_solver_solve, recycled_solver_solve],
    ids=["arena", "fresh-solver", "recycled-solver"],
)


class TestSolverBudget:
    def test_validation(self):
        with pytest.raises(ReproError):
            SolverBudget(max_conflicts=0)
        with pytest.raises(ReproError):
            SolverBudget(max_propagations=-1)
        with pytest.raises(ReproError):
            SolverBudget(wall_seconds=0.0)

    def test_unbounded(self):
        assert SolverBudget().unbounded
        assert not SolverBudget(max_conflicts=5).unbounded

    def test_frozen_and_hashable(self):
        budget = SolverBudget(max_conflicts=7)
        assert hash(budget) == hash(SolverBudget(max_conflicts=7))
        with pytest.raises(Exception):
            budget.max_conflicts = 9


class TestBudgetedSolve:
    @BUDGETED_SOLVERS
    def test_conflict_budget_yields_clean_verdict(self, solver):
        result = solver(pigeonhole_cnf(), budget=SolverBudget(max_conflicts=1))
        assert not result.satisfiable
        assert result.budget_exceeded
        assert result.conflicts <= 2  # budget checked per loop iteration

    @BUDGETED_SOLVERS
    def test_propagation_budget(self, solver):
        result = solver(pigeonhole_cnf(), budget=SolverBudget(max_propagations=1))
        assert result.budget_exceeded

    @BUDGETED_SOLVERS
    def test_unbounded_budget_is_a_no_op(self, solver):
        result = solver(pigeonhole_cnf(3, 2), budget=SolverBudget())
        assert not result.satisfiable
        assert not result.budget_exceeded

    @BUDGETED_SOLVERS
    def test_true_unsat_beats_budget_verdict(self, solver):
        # Contradictory units fail at level 0 before any conflict is counted:
        # the genuine UNSAT verdict must win over the budget one.
        result = solver(CNF([[1], [-1]]), budget=SolverBudget(max_conflicts=1))
        assert not result.satisfiable
        assert not result.budget_exceeded

    @BUDGETED_SOLVERS
    def test_satisfiable_within_budget(self, solver):
        cnf = CNF([[1, 2], [-1, 3], [-2, -3], [2, 3]])
        result = solver(cnf, budget=SolverBudget(max_conflicts=10_000))
        assert result.satisfiable
        assert not result.budget_exceeded


class TestBudgetedSessions:
    def test_session_raises_and_stays_usable(self):
        # Acceptance: a budget blowout must leave the session reusable — the
        # same session, budget lifted, reaches the same verdict as a fresh one.
        cnf = pigeonhole_cnf()
        session = ArenaSession(SolverBudget(max_conflicts=1))
        session.load_clauses(cnf.clauses, cnf.num_variables)
        with pytest.raises(BudgetExceededError):
            session.solve()
        session.budget = None
        reused = session.solve()

        fresh = ArenaSession()
        fresh.load_clauses(cnf.clauses, cnf.num_variables)
        assert reused.satisfiable == fresh.solve().satisfiable is False

    def test_budget_applies_per_solve_call(self):
        session = ArenaSession()
        cnf = pigeonhole_cnf()
        session.load_clauses(cnf.clauses, cnf.num_variables)
        session.budget = SolverBudget(max_conflicts=1)
        with pytest.raises(BudgetExceededError):
            session.solve()
        with pytest.raises(BudgetExceededError):
            session.solve()  # still budgeted, still clean

    def test_unbounded_budget_not_installed(self):
        assert ArenaSession(SolverBudget()).budget is None

    def test_dpll_rejects_budgets(self):
        # The DPLL reference cannot stop early: a budgeted solve is refused,
        # never run unbounded.
        session = DPLLSession()
        session.budget = SolverBudget(max_conflicts=1)
        session.load_clauses([[1]], 1)
        with pytest.raises(SolverError, match="DPLL"):
            session.solve()


#: The consumers that solve on the encoder's session (DeduceOrder only propagates).
SOLVING_CONSUMERS = {
    "check_validity": lambda encoder: check_validity(encoder).valid,
    "naive_deduce": lambda encoder: naive_deduce(encoder).orders,
    "suggest": lambda encoder: suggest(
        encoder, deduce_order(encoder), TrueValueAssignment()
    ).attributes,
}


class TestEncoderBudget:
    @pytest.mark.parametrize("consumer", list(SOLVING_CONSUMERS))
    def test_session_budget_bounds_the_consumer(self, george_spec, consumer):
        # The budget rides on the encoder's session, the one way a consumer
        # gets one; once lifted, the same encoder answers like an unbudgeted one.
        run = SOLVING_CONSUMERS[consumer]
        encoder = IncrementalEncoder(george_spec, budget=SolverBudget(max_propagations=1))
        with pytest.raises(BudgetExceededError):
            run(encoder)
        encoder.session.budget = None
        assert run(encoder) == run(IncrementalEncoder(george_spec))
