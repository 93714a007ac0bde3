"""Tests for the flat clause-arena solver: verdicts, models and pool recycling.

The arena is the one CDCL solver.  Its verdicts must agree with the reference
DPLL solver and its models must satisfy the formula and the assumptions.
Every :class:`~repro.solvers.session.ArenaSession` draws its solver from a
per-process pool, so a recycled solver must also behave exactly like a fresh
one: the resolution round reports surface the solver counters and the goldens
record models, so anything weaker than an identical :class:`SATResult`
(model and every counter included) would change recorded outputs.  The
property-based tests drive fresh and recycled solvers through identical
incremental scenarios (interleaved clause additions and assumption solves,
restarts, clause-database reduction).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SolverError
from repro.solvers import ArenaSession, ArenaSolver
from repro.solvers.arena import acquire_solver, release_solver

from tests.solvers._cnf_reference import CNF, loaded, solve
from tests.solvers._dpll_reference import dpll_solve


def assert_same_search(ours: ArenaSolver, reference: ArenaSolver) -> None:
    """The cumulative counters must match exactly — identical search trees."""
    assert ours.solve_calls == reference.solve_calls
    assert ours.total_decisions == reference.total_decisions
    assert ours.total_conflicts == reference.total_conflicts
    assert ours.total_propagations == reference.total_propagations
    assert ours.total_restarts == reference.total_restarts
    assert ours.num_learned_clauses == reference.num_learned_clauses
    assert ours.db_reductions == reference.db_reductions


def assert_model_satisfies(cnf: CNF, assumptions, result) -> None:
    """A satisfiable verdict comes with a model of every clause and assumption.

    A variable that occurs only in tautologies never reaches the solver, so
    the model may leave it out; any value satisfies those clauses.
    """
    if result.satisfiable:
        constrained = cnf.extended([[literal] for literal in assumptions])
        model = {v: result.model.get(v, False) for v in range(1, constrained.num_variables + 1)}
        assert constrained.evaluate(model) is True


def _random_3cnf(seed: int, num_variables: int = 30) -> CNF:
    """A random 3-CNF near the satisfiability threshold (hard enough to restart)."""
    rng = random.Random(seed)
    cnf = CNF(num_variables=num_variables)
    for _ in range(int(num_variables * 4.2)):
        variables = rng.sample(range(1, num_variables + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in variables])
    return cnf


def recycled_solver() -> ArenaSolver:
    """A solver reset after a larger, conflict-heavy formula dirtied every buffer.

    The formula has more variables than any test formula here, so the
    recycled per-variable buffers, watch lists, activities and saved phases
    all hold stale state that :meth:`ArenaSolver.reset` must clear; a tiny
    learned-clause budget leaves a grown, non-default budget behind, and the
    leading unit makes variable 2 a root-level implication with a reason.
    """
    solver = ArenaSolver()
    solver.load_clauses([[-1, 2], [1]], 0)
    heavy = _random_3cnf(seed=97, num_variables=50)
    solver.load_clauses(heavy.clauses, heavy.num_variables)
    solver._max_learned = 5
    assert solver.solve().satisfiable
    assert solver.db_reductions >= 1 and solver._reason[2] >= 0
    solver.solve(assumptions=[1, -2, 3])
    solver.propagate([4, -5])
    solver.reset()
    return solver


class TestBasics:
    def test_empty_formula_is_satisfiable(self):
        assert solve(CNF()).satisfiable

    def test_contradictory_units(self):
        assert not solve(CNF([[1], [-1]])).satisfiable

    def test_model_satisfies_formula(self):
        cnf = CNF([[1, 2], [-1, 3], [-2, -3], [2, 3]])
        result = solve(cnf)
        assert result.satisfiable
        assert cnf.evaluate(result.model) is True

    def test_zero_assumption_rejected(self):
        with pytest.raises(SolverError):
            loaded(CNF([[1]])).solve(assumptions=[0])

    def test_conflict_limit_raises(self):
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
            loaded(CNF(clauses)).solve(conflict_limit=3)

    def test_reusable_across_assumption_calls(self):
        solver = loaded(CNF([[1, 2], [-1, 2]]))
        assert solver.solve(assumptions=[-2]).satisfiable is False
        assert solver.solve(assumptions=[2]).satisfiable is True
        assert solver.solve().satisfiable is True


class TestSolverPool:
    def test_acquire_release_recycles(self):
        solver = acquire_solver()
        solver.load_clauses([[1]], 0)
        assert solver.solve().satisfiable
        release_solver(solver)
        recycled = acquire_solver()
        try:
            # Pool membership is LIFO; whether we got the same object back or
            # a fresh one, the state must be clean.
            assert recycled.num_problem_clauses == 0
            assert recycled.solve().satisfiable
        finally:
            release_solver(recycled)

    def test_reset_drops_unsat_state(self):
        solver = loaded(CNF([[1], [-1]]))
        assert not solver.solve().satisfiable
        solver.reset()
        solver.load_clauses([[1]], 0)
        assert solver.solve().satisfiable

    def test_pooled_solve_matches_a_fresh_solver(self):
        """A solver drawn from a pool holding a dirtied solver returns a fresh solver's result."""
        dirty = loaded(_random_3cnf(seed=7, num_variables=40))
        dirty.solve()
        release_solver(dirty)
        cnf = _random_3cnf(seed=8, num_variables=20)
        pooled = acquire_solver()
        try:
            pooled.load_clauses(cnf.clauses, cnf.num_variables)
            assert pooled.solve([3, -4]) == solve(cnf, assumptions=[3, -4])
        finally:
            release_solver(pooled)

    def test_reset_restores_every_field_of_a_fresh_solver(self):
        """State the searches above rarely reach (the reason of a root-level
        implication, the learned-clause budget, the activity increment) must
        be fresh too: a stale value surfaces only once a later formula
        triggers a learned-database reduction."""
        cnf = _random_3cnf(seed=3, num_variables=20)
        recycled, fresh = recycled_solver(), ArenaSolver()
        recycled.load_clauses(cnf.clauses, cnf.num_variables)
        fresh.load_clauses(cnf.clauses, cnf.num_variables)
        size = fresh.num_variables + 1
        for name in ("_assignment", "_level", "_reason", "_phase", "_activity", "_heap_pos"):
            assert list(getattr(recycled, name)[:size]) == list(getattr(fresh, name)), name
        assert recycled._watches[: 2 * size] == fresh._watches
        for name in (
            "_arena", "_clause_offset", "_clause_length", "_clause_learned",
            "_clause_activity", "_heap", "_trail", "_trail_level_start", "_queue_head",
            "_unsat", "_activity_increment", "_clause_activity_increment", "_max_learned",
        ):
            assert getattr(recycled, name) == getattr(fresh, name), name


# -- property-based: DPLL verdicts, real models, recycled == fresh -------------


@st.composite
def clause_batches(draw):
    """A sequence of (clauses, assumptions) rounds for incremental solving."""
    num_variables = draw(st.integers(1, 8))
    rounds = []
    for _ in range(draw(st.integers(1, 3))):
        clauses = []
        for _ in range(draw(st.integers(0, 12))):
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
                max_size=3,
            )
        )
        rounds.append((clauses, assumptions))
    return rounds


@given(clause_batches())
@settings(max_examples=120, deadline=None)
def test_incremental_solves_agree_with_dpll_and_a_recycled_solver(rounds):
    """Interleaved load_clauses/solve sequences: DPLL's verdicts, real models,
    and a recycled solver runs the same search as a fresh one."""
    fresh = ArenaSolver()
    recycled = recycled_solver()
    accumulated = CNF()
    for clauses, assumptions in rounds:
        fresh.load_clauses(clauses, 0)
        recycled.load_clauses(clauses, 0)
        accumulated.add_clauses(clauses)
        result = fresh.solve(assumptions)
        assert recycled.solve(assumptions) == result
        assert result.satisfiable == dpll_solve(accumulated, assumptions).satisfiable
        assert_model_satisfies(accumulated, assumptions, result)
    assert_same_search(recycled, fresh)


@given(st.integers(0, 1_000_000))
@settings(max_examples=10, deadline=None)
def test_hard_instances_agree_with_dpll_and_a_recycled_solver(seed):
    """Hard random instances force restarts/DB reduction; the recycled solver
    must take the identical path, and the verdict must be DPLL's."""
    cnf = _random_3cnf(seed)
    fresh = loaded(cnf)
    recycled = recycled_solver()
    recycled.load_clauses(cnf.clauses, cnf.num_variables)
    result = fresh.solve()
    assert recycled.solve() == result
    assert result.satisfiable == dpll_solve(cnf).satisfiable
    assert_model_satisfies(cnf, (), result)
    assert_same_search(recycled, fresh)


# -- bulk load ------------------------------------------------------------------


def reference_add_clause(solver: ArenaSolver, literals) -> None:
    """One clause added the one-at-a-time way: backtrack, grow per literal, simplify at the root."""
    if solver._unsat:
        return
    seen = {}
    for lit in literals:
        if lit == 0:
            raise SolverError("0 is not a valid literal")
        if -lit in seen:
            return  # tautology
        seen[lit] = None
    solver._backtrack(0)
    for lit in seen:
        solver.ensure_variables(abs(lit))
    kept = []
    for lit in seen:
        value = solver._assignment[abs(lit)] * (1 if lit > 0 else -1)
        if value == 1:
            return  # satisfied at the root level
        if value == 0:
            kept.append(lit)
    if not kept:
        solver._unsat = True
    elif len(kept) == 1:
        if not solver._enqueue(kept[0], -1, None):
            solver._unsat = True
    else:
        index = solver._append_clause(kept, learned=False)
        solver._watch(kept[0], index)
        solver._watch(kept[1], index)
        solver.num_problem_clauses += 1


def _arena_state(solver: ArenaSolver):
    """Everything a clause load may touch, over the live variables (pooled buffers run longer)."""
    live = solver.num_variables + 1
    return (
        list(solver._arena),
        list(solver._clause_offset),
        list(solver._clause_length),
        bytes(solver._clause_learned),
        [list(watching) for watching in solver._watches[: 2 * live]],
        list(solver._trail),
        list(solver._trail_level_start),
        solver._queue_head,
        list(solver._assignment[:live]),
        list(solver._level[:live]),
        list(solver._reason[:live]),
        bytes(solver._phase[:live]),
        list(solver._activity[:live]),
        list(solver._heap),
        list(solver._heap_pos[:live]),
        solver.num_problem_clauses,
        solver._unsat,
        solver.num_variables,
    )


@st.composite
def load_scenarios(draw):
    """A solved and propagated formula, then a batch with duplicates, tautologies, contradictory units and ``[]``."""
    base_variables = draw(st.integers(1, 6))
    literal = lambda top: st.integers(1, top).flatmap(lambda v: st.sampled_from((v, -v)))  # noqa: E731
    base = draw(st.lists(st.lists(literal(base_variables), min_size=1, max_size=3), max_size=12))
    assumptions = draw(st.lists(literal(base_variables), max_size=2))
    top = base_variables + draw(st.integers(0, 4))
    clause = st.one_of(
        st.lists(literal(top), min_size=1, max_size=4),  # duplicates and tautologies arise
        literal(top).map(lambda lit: [lit, lit]),
        literal(top).map(lambda lit: [lit, -lit]),
        st.just([]),
    )
    batch = draw(st.lists(clause, max_size=10))
    units = draw(st.lists(literal(top), max_size=2))
    for lit in units:  # a contradictory pair of unit clauses
        batch.insert(draw(st.integers(0, len(batch))), [lit])
        batch.insert(draw(st.integers(0, len(batch))), [-lit])
    num_variables = draw(st.integers(0, top + 2))
    return base_variables, base, assumptions, batch, num_variables


@given(load_scenarios())
@settings(max_examples=300, deadline=None)
def test_bulk_load_equals_clause_at_a_time_loading(scenario):
    """One ``load_clauses`` batch leaves the solver as one call per clause does, and as the reference."""
    base_variables, base, assumptions, batch, num_variables = scenario
    sessions = (ArenaSession(), ArenaSession(), ArenaSession())
    for session in sessions:
        session.load_clauses(base, base_variables)
        session.propagate(assumptions[:1])
        session.solve(assumptions)  # a model leaves the trail above level 0
    reference, per_clause, bulk = sessions
    assert _arena_state(per_clause.solver) == _arena_state(bulk.solver)
    for clause in batch:
        reference_add_clause(reference.solver, clause)
        per_clause.load_clauses([clause], 0)
    reference.solver.ensure_variables(num_variables)
    per_clause.load_clauses([], num_variables)
    bulk.load_clauses(batch, num_variables)
    assert _arena_state(reference.solver) == _arena_state(bulk.solver)
    assert _arena_state(per_clause.solver) == _arena_state(bulk.solver)
    assert per_clause.statistics()["clauses_added"] == bulk.statistics()["clauses_added"]
    # They go on to search the same way.
    satisfiable = bulk.solve(assumptions).satisfiable
    assert per_clause.solve(assumptions).satisfiable == satisfiable
    assert reference.solve(assumptions).satisfiable == satisfiable
    assert_same_search(per_clause.solver, bulk.solver)
    assert_same_search(reference.solver, bulk.solver)


def test_load_clauses_rejects_a_zero_literal():
    solver = ArenaSolver()
    with pytest.raises(SolverError):
        solver.load_clauses([[1, 2], [3, 0]], 3)
