"""Stateful solver sessions that keep their clauses across calls.

The interactive resolution framework (paper Fig. 4) issues many SAT queries
against the *same* growing formula Φ(S_e ⊕ O_t): one validity check per round,
one refutation per candidate order in ``NaiveDeduce``, and a batch of probes
during ``Suggest``'s group-MaxSAT repair.  A :class:`SolverSession` keeps one
solver alive for that whole lifecycle:

* ``load_clauses`` appends a batch of clauses (a full encode, or one delta
  of the incremental encoder) in one call, without rebuilding anything; it
  is the one way clauses enter a session;
* ``solve(assumptions)`` answers a query under per-call assumptions; the
  arena session keeps variable activities and saved phases between calls,
  and forgets the clauses a solve learned when it returns;
* ``propagate(assumptions)`` runs unit propagation alone (``DeduceOrder``'s
  loop) on the same clauses, counting no solve.  It sees the session formula
  and nothing a solve learned, so what it forces does not depend on which
  queries ran before;
* ``statistics()`` reports the reuse counters (cold vs. incremental solves,
  clauses carried over) that the benchmark harness surfaces.

:class:`ArenaSession`, over the flat clause-arena CDCL solver, is the
session the package runs on; the base class is what a test substitutes its
own session through.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import BudgetExceededError
from repro.solvers.arena import ArenaSolver, SATResult, acquire_solver, release_solver
from repro.solvers.budget import SolverBudget

__all__ = ["SolverSession", "ArenaSession"]


class SolverSession:
    """Base class for stateful solver sessions.

    Subclasses implement ``_load_clauses``, ``_solve`` and ``propagate``;
    the base class keeps the reuse statistics uniform across sessions.
    *budget*, unless unbounded, applies to every solve (see :attr:`budget`).
    """

    #: Whether a solve reuses the clauses loaded for earlier ones.
    reuses_clauses = False

    def __init__(self, budget: Optional[SolverBudget] = None) -> None:
        self._clauses_added = 0
        self._solve_calls = 0
        self._cold_solves = 0
        self._incremental_solves = 0
        self._clauses_reused = 0
        #: Budget applied to every solve on this session (``None`` = unbounded).
        #: Mutable on purpose: after a :class:`BudgetExceededError` the caller
        #: may clear or raise it and keep using the same session.
        self.budget: Optional[SolverBudget] = (
            budget if budget is not None and not budget.unbounded else None
        )
        self._budget_exceeded_calls = 0

    # -- interface ------------------------------------------------------------

    def load_clauses(self, clauses: Sequence[Sequence[int]], num_variables: int) -> None:
        """Append *clauses*, then make the session aware of variables up to *num_variables*.

        One call into the solver per batch; every clause counts as added.
        """
        self._load_clauses(clauses, num_variables)
        self._clauses_added += len(clauses)

    def solve(self, assumptions: Sequence[int] = (), conflict_limit: Optional[int] = None) -> SATResult:
        """Decide satisfiability of the session formula under *assumptions*.

        When :attr:`budget` is set and the solve exhausts it, raises
        :class:`~repro.core.errors.BudgetExceededError`; the session stays
        reusable (the solver backtracked to level zero before returning).
        """
        self._solve_calls += 1
        if self._solve_calls == 1 or not self.reuses_clauses:
            self._cold_solves += 1
        else:
            self._incremental_solves += 1
            self._clauses_reused += self._clauses_added
        result = self._solve(assumptions, conflict_limit)
        if result.budget_exceeded:
            self._budget_exceeded_calls += 1
            raise BudgetExceededError(
                f"solver budget {self.budget} exhausted after "
                f"{result.conflicts} conflicts / {result.propagations} propagations"
            )
        return result

    # -- subclass hooks --------------------------------------------------------

    def _load_clauses(self, clauses: Sequence[Sequence[int]], num_variables: int) -> None:
        raise NotImplementedError

    def _solve(self, assumptions: Sequence[int], conflict_limit: Optional[int]) -> SATResult:
        raise NotImplementedError

    def propagate(self, assumptions: Sequence[int] = ()) -> Tuple[List[int], bool]:
        """Unit-propagate the session formula under *assumptions*, without search.

        Returns the literals forced true (the root-level ones included) and
        whether propagation reached a conflict.  No solve is counted and no
        counter moves (see :meth:`~repro.solvers.arena.ArenaSolver.propagate`).
        Only the session formula takes part, never a clause a solve learned,
        so every session forces the same literals whatever ran before.
        """
        raise NotImplementedError

    # -- reporting -------------------------------------------------------------

    @property
    def solve_calls(self) -> int:
        """Number of ``solve`` invocations so far."""
        return self._solve_calls

    def statistics(self) -> Dict[str, int]:
        """Reuse counters for reports and the benchmark harness.

        ``clauses_reused`` accumulates, per incremental solve, the number of
        already-loaded clauses the call did *not* have to re-encode.
        """
        return {
            "solve_calls": self._solve_calls,
            "cold_solves": self._cold_solves,
            "incremental_solves": self._incremental_solves,
            "clauses_added": self._clauses_added,
            "clauses_reused": self._clauses_reused,
        }


class ArenaSession(SolverSession):
    """Incremental session backed by the flat clause-arena solver.

    Clauses are pushed straight into the solver's database, and VSIDS
    activities and saved phases survive between ``solve`` calls, so the
    repeated queries of one resolution round (and of later rounds, after the
    incremental encoder appends the delta clauses) share their work.  A
    solve that met a conflict forgets what it learned before it returns: a
    learned clause is implied by the formula but not always by unit
    propagation over it, so keeping it would let ``propagate`` — and hence
    ``DeduceOrder`` — force more after some queries than after others.  The
    underlying :class:`~repro.solvers.arena.ArenaSolver` is drawn from the
    per-process pool, so a worker resolving many entities reuses the same
    warm buffers across their sessions.
    """

    reuses_clauses = True

    def __init__(self, budget: Optional[SolverBudget] = None) -> None:
        super().__init__(budget)
        self._solver = acquire_solver()
        # Hand the buffers back for the next session once this one is
        # unreachable (sessions have no explicit close in the resolution
        # stack; the resolver simply drops them at the end of an entity).
        self._finalizer = weakref.finalize(self, release_solver, self._solver)

    @property
    def solver(self) -> ArenaSolver:
        """The underlying pooled arena solver (exposed for diagnostics)."""
        return self._solver

    def _load_clauses(self, clauses: Sequence[Sequence[int]], num_variables: int) -> None:
        self._solver.load_clauses(clauses, num_variables)

    def _solve(self, assumptions: Sequence[int], conflict_limit: Optional[int]) -> SATResult:
        solver = self._solver
        mark, conflicts = solver.mark(), solver.total_conflicts
        try:
            return solver.solve(assumptions, conflict_limit=conflict_limit, budget=self.budget)
        finally:
            if solver.total_conflicts != conflicts:
                solver.forget(mark)

    def propagate(self, assumptions: Sequence[int] = ()) -> Tuple[List[int], bool]:
        return self._solver.propagate(assumptions)

    def statistics(self) -> Dict[str, int]:
        stats = super().statistics()
        stats["conflicts"] = self._solver.total_conflicts
        stats["decisions"] = self._solver.total_decisions
        stats["propagations"] = self._solver.total_propagations
        stats["db_reductions"] = self._solver.db_reductions
        stats["clauses_deleted"] = self._solver.clauses_deleted
        return stats
