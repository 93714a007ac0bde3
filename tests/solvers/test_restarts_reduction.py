"""Tests for Luby restarts, the VSIDS branching heap and learned-DB reduction."""

import random

from repro.solvers import ArenaSession, ArenaSolver
from repro.solvers.arena import _luby

from tests.solvers._cnf_reference import CNF, loaded
from tests.solvers._dpll_reference import dpll_solve


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CNF:
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(2, 4)
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return CNF(clauses, num_variables=num_vars)


def pigeonhole(pigeons: int, holes: int) -> CNF:
    """The classic conflict-heavy unsatisfiable family (pigeons > holes)."""
    clauses = []

    def var(i, j):
        return holes * i + j + 1

    for i in range(pigeons):
        clauses.append([var(i, j) for j in range(holes)])
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append([-var(a, j), -var(b, j)])
    return CNF(clauses)


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_powers(self):
        # The (2^k − 1)-th term is 2^(k−1).
        for k in range(1, 10):
            assert _luby((1 << k) - 1) == 1 << (k - 1)


class TestBranchingHeap:
    def test_pick_prefers_highest_activity_then_lowest_index(self):
        solver = ArenaSolver()
        solver.ensure_variables(5)
        for _ in range(2):
            solver._bump(3)
            solver._bump(4)
        for _ in range(5):
            solver._bump(2)
        # Highest activity wins outright.
        assert solver._pick_branch_variable() == 2
        # Ties break toward the lower variable index (matching the original
        # linear scan).
        assert solver._pick_branch_variable() == 3
        assert solver._pick_branch_variable() == 4
        assert solver._pick_branch_variable() == 1
        assert solver._pick_branch_variable() == 5
        # An empty heap means every variable is assigned: 0, never a variable.
        assert solver._pick_branch_variable() == 0

    def test_backtrack_reinserts_variables(self):
        solver = loaded(CNF([[1, 2], [-1, 2]]))
        assert solver.solve().satisfiable
        # After a solve everything is assigned; a fresh solve must still be
        # able to branch (variables resurface through backtracking).
        assert solver.solve().satisfiable

    def test_heap_solver_agrees_with_dpll(self):
        rng = random.Random(7)
        for trial in range(30):
            cnf = random_cnf(rng, num_vars=12, num_clauses=45)
            expected = dpll_solve(cnf).satisfiable
            result = loaded(cnf).solve()
            assert result.satisfiable == expected
            if result.satisfiable:
                assert cnf.evaluate(result.model) is True

    def test_determinism(self):
        rng = random.Random(11)
        cnf = random_cnf(rng, num_vars=20, num_clauses=80)
        first = loaded(cnf).solve()
        second = loaded(cnf).solve()
        assert first.satisfiable == second.satisfiable
        assert first.model == second.model
        assert first.decisions == second.decisions
        assert first.conflicts == second.conflicts


class TestLearnedDatabaseReduction:
    def test_reduction_triggers_and_keeps_solver_sound(self):
        # Pigeonhole 6→5 produces ~150 conflicts; a tiny budget forces many
        # reductions and the answer must remain UNSAT.
        solver = loaded(pigeonhole(6, 5))
        solver._max_learned = 5
        result = solver.solve()
        assert not result.satisfiable
        assert solver.db_reductions >= 1
        assert solver.clauses_deleted >= 1
        assert solver.num_learned_clauses == sum(solver._clause_learned)

    def test_reduction_on_satisfiable_instances_agrees_with_dpll(self):
        rng = random.Random(5)
        for trial in range(15):
            cnf = random_cnf(rng, num_vars=14, num_clauses=56)
            solver = loaded(cnf)
            solver._max_learned = 2
            result = solver.solve()
            assert result.satisfiable == dpll_solve(cnf).satisfiable
            if result.satisfiable:
                assert cnf.evaluate(result.model) is True

    def test_reduction_preserves_incrementality(self):
        # Clauses added after a reduction must combine soundly with whatever
        # learned clauses were kept.
        # A satisfiable conflict-heavy prefix: pigeonhole 5→5 (permutations).
        solver = loaded(pigeonhole(5, 5))
        solver._max_learned = 5
        assert solver.solve().satisfiable
        solver.load_clauses([[1, 2], [-1, 2]], 0)
        assert not solver.solve(assumptions=[-2]).satisfiable  # -2 forces 1 ∧ ¬1
        assert solver.solve().satisfiable  # still SAT without the assumption

    def test_reduction_grows_budget(self):
        solver = loaded(pigeonhole(6, 5))
        solver._max_learned = 5
        solver.solve()
        assert solver.db_reductions >= 1
        assert solver._max_learned > 5

    def test_reduction_counters_surface_in_session_statistics(self):
        session = ArenaSession()
        session.load_clauses(pigeonhole(6, 5).clauses, 0)
        session.solver._max_learned = 5
        session.solve()
        stats = session.statistics()
        assert stats["db_reductions"] >= 1
        assert stats["clauses_deleted"] >= 1
        assert session.solver.num_learned_clauses == 0


class TestRestarts:
    def test_restart_counter_advances_on_conflict_heavy_instance(self):
        # Pigeonhole 6→5 generates enough conflicts to cross several Luby
        # intervals (64·1, 64·1, 64·2, …).
        result = loaded(pigeonhole(6, 5)).solve()
        assert not result.satisfiable
        assert result.restarts >= 1
