"""Solver budgets: clean BUDGET_EXCEEDED verdicts and reusable sessions."""

import pytest

from repro.core.errors import BudgetExceededError, ReproError, SolverError
from repro.solvers import CNF, ArenaSolver, SolverBudget, solve
from repro.solvers.session import create_session


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


def fresh_solver_solve(cnf, budget=None):
    """A budgeted solve on a new solver: the path every session takes."""
    return ArenaSolver(cnf).solve(budget=budget)


def recycled_solver_solve(cnf, budget=None):
    """A budgeted solve on a solver recycled the way the solver pool does it.

    The solver first burns conflicts on a harder formula; a budget checked
    against lifetime totals rather than this call's counters would trip at
    once on the recycled solver.
    """
    solver = ArenaSolver(pigeonhole_cnf(7, 6))
    assert solver.solve(budget=SolverBudget(max_conflicts=200)).budget_exceeded
    solver.reset()
    solver.load(cnf)
    return solver.solve(budget=budget)


#: ``solve`` draws its solver from the pool; the other two pin the fresh and
#: the recycled solver it may hand out.
BUDGETED_SOLVERS = pytest.mark.parametrize(
    "solver",
    [solve, fresh_solver_solve, recycled_solver_solve],
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
    @pytest.mark.parametrize("backend", ["arena"])
    def test_session_raises_and_stays_usable(self, backend):
        # Acceptance: a budget blowout must leave the session reusable — the
        # same session, budget lifted, reaches the same verdict as a fresh one.
        cnf = pigeonhole_cnf()
        session = create_session(backend=backend, budget=SolverBudget(max_conflicts=1))
        session.add_clauses(cnf.clauses)
        with pytest.raises(BudgetExceededError):
            session.solve()
        session.budget = None
        reused = session.solve()

        fresh = create_session(backend=backend)
        fresh.add_clauses(cnf.clauses)
        assert reused.satisfiable == fresh.solve().satisfiable is False

    @pytest.mark.parametrize("backend", ["arena"])
    def test_budget_applies_per_solve_call(self, backend):
        session = create_session(backend=backend)
        session.add_clauses(pigeonhole_cnf().clauses)
        session.budget = SolverBudget(max_conflicts=1)
        with pytest.raises(BudgetExceededError):
            session.solve()
        with pytest.raises(BudgetExceededError):
            session.solve()  # still budgeted, still clean

    def test_unbounded_budget_not_installed(self):
        session = create_session(backend="arena", budget=SolverBudget())
        assert session.budget is None

    def test_dpll_rejects_budgets(self):
        session = create_session(backend="dpll")
        session.budget = SolverBudget(max_conflicts=1)
        session.add_clauses([[1]])
        with pytest.raises(SolverError, match="dpll"):
            session.solve()
