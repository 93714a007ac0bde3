"""A from-scratch incremental CDCL SAT solver.

This module replaces the MiniSAT binary used in the paper's experiments.  It
implements the standard conflict-driven clause-learning loop:

* two-literal watching for unit propagation,
* first-UIP conflict analysis with clause learning,
* heap-backed VSIDS variable activities (lazy multiplicative bumping with
  rescale — no per-decay sweep, no linear scan per decision),
* phase saving, Luby restarts, and activity-sorted learned-clause database
  reduction (keep-half).

The solver is *incremental* in the MiniSat sense: clauses can be added between
:meth:`CDCLSolver.solve` calls and assumptions are decided at their own
decision levels, so every learned clause is implied by the problem clauses
alone and can be retained across calls.  This is what makes the repeated-query
workload of the interactive resolution framework (validity check, per-candidate
refutations, MaxSAT probing on the same Φ(S_e)) cheap: conflicts learned by an
early query prune the search of every later one.

The solver is deliberately dependency-free and deterministic (given the same
formula it always returns the same model), which keeps experiments
reproducible.  For the formula sizes produced by entity-level specifications
(10²–10⁵ clauses) it answers well within interactive time.

Public API
----------

``solve(cnf, assumptions=())`` returns a :class:`SATResult` whose
``satisfiable`` flag and ``model`` (a ``{variable: bool}`` dict) mirror what a
MiniSAT-style incremental interface would return.  ``CDCLSolver`` exposes the
stateful interface (``add_clause`` / ``solve(assumptions)`` /
``propagate(assumptions)``) used by :mod:`repro.solvers.session`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from time import perf_counter

from repro.core.errors import SolverError
from repro.solvers.budget import SolverBudget
from repro.solvers.cnf import CNF

__all__ = ["SATResult", "CDCLSolver", "solve"]


@dataclass
class SATResult:
    """Outcome of a SAT call.

    ``budget_exceeded`` marks a ``BUDGET_EXCEEDED`` verdict: the call ran
    out of its :class:`~repro.solvers.budget.SolverBudget` before reaching
    a decision.  ``satisfiable`` is ``False`` in that case but makes *no*
    claim about the formula; callers must check the flag before trusting
    the answer.  The solver backtracked to level zero, so it stays usable.
    """

    satisfiable: bool
    model: Optional[Dict[int, bool]] = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    budget_exceeded: bool = False

    def __bool__(self) -> bool:
        return self.satisfiable


@dataclass
class _SolverStats:
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0


_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1

#: Unit of the Luby restart schedule (conflicts); interval i is ``base·luby(i)``.
_LUBY_UNIT = 64


def _luby(i: int) -> int:
    """The *i*-th term (1-based) of the Luby sequence 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…

    The reluctant-doubling schedule of Luby, Sinclair and Zuckerman; it is the
    universally optimal restart strategy up to a constant factor.
    """
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class CDCLSolver:
    """Conflict-driven clause-learning solver with incremental clause addition.

    The solver may take an initial formula at construction time; further
    clauses can be appended with :meth:`add_clause` between :meth:`solve`
    calls.  Assumptions are decided at dedicated decision levels (never mixed
    into level 0), so clauses learned under assumptions are consequences of
    the clause database alone and stay valid for every later call.
    """

    def __init__(self, cnf: Optional[CNF] = None) -> None:
        self._num_vars = 0
        self._clauses: List[List[int]] = []
        self._watches: Dict[int, List[int]] = {}
        # 1-indexed per-variable state (index 0 unused).
        self._assignment: List[int] = [_UNASSIGNED]
        self._level: List[int] = [0]
        self._reason: List[Optional[int]] = [None]
        self._phase: List[bool] = [False]
        self._activity: List[float] = [0.0]
        self._activity_increment = 1.0
        self._activity_decay = 0.95
        # Branching heap: a binary max-heap over variable indices ordered by
        # (activity desc, index asc); `_heap_pos[v]` is v's slot or -1.
        self._heap: List[int] = []
        self._heap_pos: List[int] = [-1]
        # Learned-clause bookkeeping for database reduction.
        self._clause_learned: List[bool] = []
        self._clause_activity: List[float] = []
        self._clause_activity_increment = 1.0
        self._clause_activity_decay = 0.999
        self._max_learned: Optional[int] = None  # set lazily from problem size
        self._trail: List[int] = []
        self._trail_level_start: List[int] = [0]
        self._queue_head = 0
        self._unsat = False
        # Cumulative statistics (across all solve calls).
        self.solve_calls = 0
        self.num_problem_clauses = 0
        self.num_learned_clauses = 0
        self.total_conflicts = 0
        self.total_decisions = 0
        self.total_propagations = 0
        self.total_restarts = 0
        self.db_reductions = 0
        self.clauses_deleted = 0
        if cnf is not None:
            self.ensure_variables(cnf.num_variables)
            self.add_clauses(cnf.clauses)

    # -- bookkeeping -----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        """Number of variables the solver currently tracks."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Total clause-database size (problem + learned clauses)."""
        return len(self._clauses)

    def ensure_variables(self, count: int) -> None:
        """Grow the per-variable state up to variable index *count*."""
        while self._num_vars < count:
            self._num_vars += 1
            self._assignment.append(_UNASSIGNED)
            self._level.append(0)
            self._reason.append(None)
            self._phase.append(False)
            self._activity.append(0.0)
            self._heap_pos.append(-1)
            self._heap_insert(self._num_vars)

    @staticmethod
    def _simplify_clause(clause: Sequence[int]) -> Optional[List[int]]:
        """Deduplicate a clause; return ``None`` for tautologies."""
        seen: Dict[int, None] = {}
        for lit in clause:
            lit = int(lit)
            if lit == 0:
                raise SolverError("0 is not a valid literal")
            if -lit in seen:
                return None
            seen.setdefault(lit, None)
        return list(seen)

    # -- clause addition -------------------------------------------------------

    def add_clause(self, literals: Sequence[int]) -> None:
        """Append one clause to the database (callable between solve calls).

        The clause is simplified against the root-level (level-0) assignment:
        root-falsified literals are dropped and root-satisfied clauses are not
        stored at all — both are sound because level-0 assignments are logical
        consequences of the clause database.
        """
        if self._unsat:
            return
        simplified = self._simplify_clause(literals)
        if simplified is None:
            return  # tautology
        self._backtrack(0)
        for lit in simplified:
            self.ensure_variables(abs(lit))
        kept: List[int] = []
        for lit in simplified:
            value = self._value(lit)
            if value == _TRUE:
                return  # satisfied at the root level forever
            if value == _FALSE:
                continue  # falsified at the root level forever
            kept.append(lit)
        if not kept:
            self._unsat = True
            return
        if len(kept) == 1:
            if not self._enqueue(kept[0], None, None):
                self._unsat = True
            return
        self._clauses.append(kept)
        self._clause_learned.append(False)
        self._clause_activity.append(0.0)
        index = len(self._clauses) - 1
        self._watch(kept[0], index)
        self._watch(kept[1], index)
        self.num_problem_clauses += 1

    def add_clauses(self, clauses) -> None:
        """Append several clauses."""
        for clause in clauses:
            self.add_clause(clause)

    # -- low-level machinery ---------------------------------------------------

    def _watch(self, literal: int, clause_index: int) -> None:
        self._watches.setdefault(literal, []).append(clause_index)

    def _value(self, literal: int) -> int:
        value = self._assignment[abs(literal)]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value if literal > 0 else -value

    def _current_level(self) -> int:
        return len(self._trail_level_start) - 1

    def _enqueue(self, literal: int, reason_clause: Optional[int], stats: Optional[_SolverStats]) -> bool:
        variable = abs(literal)
        current = self._value(literal)
        if current == _TRUE:
            return True
        if current == _FALSE:
            return False
        self._assignment[variable] = _TRUE if literal > 0 else _FALSE
        self._level[variable] = self._current_level()
        self._reason[variable] = reason_clause
        self._phase[variable] = literal > 0
        self._trail.append(literal)
        if stats is not None:
            stats.propagations += 1
        return True

    def _propagate(self, stats: _SolverStats) -> Optional[int]:
        """Run unit propagation; return the index of a conflicting clause or ``None``."""
        clauses = self._clauses
        watches = self._watches
        trail = self._trail
        while self._queue_head < len(trail):
            literal = trail[self._queue_head]
            self._queue_head += 1
            falsified = -literal
            watching = watches.get(falsified, [])
            index = 0
            while index < len(watching):
                clause_index = watching[index]
                clause = clauses[clause_index]
                # Ensure the falsified literal sits at position 1.
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                if self._value(clause[0]) == _TRUE:
                    index += 1
                    continue
                # Look for a replacement watch.
                replacement = -1
                for position in range(2, len(clause)):
                    if self._value(clause[position]) != _FALSE:
                        replacement = position
                        break
                if replacement >= 0:
                    clause[1], clause[replacement] = clause[replacement], clause[1]
                    watching[index] = watching[-1]
                    watching.pop()
                    self._watch(clause[1], clause_index)
                    continue
                # No replacement: clause is unit or conflicting.
                if self._value(clause[0]) == _FALSE:
                    return clause_index
                self._enqueue(clause[0], clause_index, stats)
                index += 1
        return None

    # -- branching heap (VSIDS order) -----------------------------------------

    def _heap_before(self, first: int, second: int) -> bool:
        """Heap priority: higher activity first, lower index on ties.

        The tie-break reproduces the selection of a linear max-scan over
        variable indices, which keeps the solver's decision sequence (and thus
        its models) identical to the pre-heap implementation.
        """
        activity = self._activity
        first_activity = activity[first]
        second_activity = activity[second]
        if first_activity != second_activity:
            return first_activity > second_activity
        return first < second

    def _heap_sift_up(self, slot: int) -> None:
        heap = self._heap
        position = self._heap_pos
        variable = heap[slot]
        while slot > 0:
            parent_slot = (slot - 1) >> 1
            parent = heap[parent_slot]
            if not self._heap_before(variable, parent):
                break
            heap[slot] = parent
            position[parent] = slot
            slot = parent_slot
        heap[slot] = variable
        position[variable] = slot

    def _heap_sift_down(self, slot: int) -> None:
        heap = self._heap
        position = self._heap_pos
        variable = heap[slot]
        size = len(heap)
        while True:
            child_slot = 2 * slot + 1
            if child_slot >= size:
                break
            right_slot = child_slot + 1
            if right_slot < size and self._heap_before(heap[right_slot], heap[child_slot]):
                child_slot = right_slot
            child = heap[child_slot]
            if not self._heap_before(child, variable):
                break
            heap[slot] = child
            position[child] = slot
            slot = child_slot
        heap[slot] = variable
        position[variable] = slot

    def _heap_insert(self, variable: int) -> None:
        if self._heap_pos[variable] >= 0:
            return
        self._heap.append(variable)
        self._heap_sift_up(len(self._heap) - 1)

    def _heap_pop(self) -> Optional[int]:
        heap = self._heap
        if not heap:
            return None
        top = heap[0]
        self._heap_pos[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            self._heap_pos[last] = 0
            self._heap_sift_down(0)
        return top

    # -- activities -------------------------------------------------------------

    def _bump(self, variable: int) -> None:
        self._activity[variable] += self._activity_increment
        if self._activity[variable] > 1e100:
            self._rescale_activities()
        slot = self._heap_pos[variable]
        if slot >= 0:
            self._heap_sift_up(slot)

    def _rescale_activities(self) -> None:
        """Multiplicative rescale; preserves the relative order, so the heap
        needs no rebuilding."""
        for variable in range(1, self._num_vars + 1):
            self._activity[variable] *= 1e-100
        self._activity_increment *= 1e-100

    def _bump_clause(self, clause_index: int) -> None:
        activity = self._clause_activity
        activity[clause_index] += self._clause_activity_increment
        if activity[clause_index] > 1e20:
            for index in range(len(activity)):
                activity[index] *= 1e-20
            self._clause_activity_increment *= 1e-20

    def _decay_activities(self) -> None:
        """Lazy multiplicative decay: only the increments change, no sweep."""
        self._activity_increment /= self._activity_decay
        self._clause_activity_increment /= self._clause_activity_decay

    def _analyze(self, conflict_index: int) -> Tuple[List[int], int]:
        """First-UIP analysis; returns the learned clause and the backjump level."""
        learned: List[int] = []
        seen = [False] * (self._num_vars + 1)
        counter = 0
        literal: Optional[int] = None
        self._bump_clause(conflict_index)
        clause = self._clauses[conflict_index]
        current_level = self._current_level()
        trail = self._trail
        trail_index = len(trail) - 1
        level = self._level
        reason = self._reason

        while True:
            for other in clause:
                if literal is not None and other == literal:
                    continue
                variable = abs(other)
                if seen[variable] or level[variable] == 0:
                    continue
                seen[variable] = True
                self._bump(variable)
                if level[variable] == current_level:
                    counter += 1
                else:
                    learned.append(other)
            # Pick the next literal to resolve on from the trail.
            while not seen[abs(trail[trail_index])]:
                trail_index -= 1
            literal = -trail[trail_index]
            variable = abs(literal)
            seen[variable] = False
            counter -= 1
            trail_index -= 1
            if counter == 0:
                break
            reason_index = reason[variable]
            if reason_index is None:  # pragma: no cover - defensive
                break
            self._bump_clause(reason_index)
            clause = self._clauses[reason_index]

        learned = [literal] + learned if literal is not None else learned
        if len(learned) == 1:
            return learned, 0
        backjump = max(level[abs(lit)] for lit in learned[1:])
        # Place a literal of the backjump level at position 1 (watch invariant).
        for position in range(1, len(learned)):
            if level[abs(learned[position])] == backjump:
                learned[1], learned[position] = learned[position], learned[1]
                break
        return learned, backjump

    def _backtrack(self, target_level: int) -> None:
        starts = self._trail_level_start
        if target_level + 1 < len(starts):
            cutoff = starts[target_level + 1]
        else:
            cutoff = len(self._trail)
        for literal in self._trail[cutoff:]:
            variable = abs(literal)
            self._assignment[variable] = _UNASSIGNED
            self._reason[variable] = None
            self._heap_insert(variable)
        del self._trail[cutoff:]
        del starts[target_level + 1 :]
        self._queue_head = min(self._queue_head, len(self._trail))

    def _new_level(self) -> None:
        self._trail_level_start.append(len(self._trail))

    def _pick_branch_variable(self) -> Optional[int]:
        # Lazy deletion: assigned variables stay in the heap until popped.
        # Every unassigned variable is in the heap (insertion on creation and
        # on backtrack), so an empty heap means a total assignment.
        assignment = self._assignment
        while True:
            variable = self._heap_pop()
            if variable is None or assignment[variable] == _UNASSIGNED:
                return variable

    # -- learned-clause database reduction -------------------------------------

    def _reduce_learned_db(self) -> None:
        """Drop the less active half of the learned clauses (MiniSat style).

        Deleting learned clauses is always sound — they are consequences of
        the problem clauses — so sessions stay incremental across the
        reduction.  Clauses that are currently the reason of an assignment,
        and binary clauses, are always kept.
        """
        clauses = self._clauses
        activity = self._clause_activity
        locked = {index for index in self._reason if index is not None}
        deletable = [
            index
            for index, is_learned in enumerate(self._clause_learned)
            if is_learned and len(clauses[index]) > 2 and index not in locked
        ]
        drop = set(sorted(deletable, key=lambda index: activity[index])[: len(deletable) // 2])
        if not drop:
            # Nothing deletable (the learned DB is dominated by binary/locked
            # clauses).  Still grow the budget, otherwise every subsequent
            # conflict would re-scan the whole clause list for nothing.
            if self._max_learned is not None:
                self._max_learned = int(self._max_learned * 1.3) + 1
            return
        remap: Dict[int, int] = {}
        kept_clauses: List[List[int]] = []
        kept_learned: List[bool] = []
        kept_activity: List[float] = []
        for index, clause in enumerate(clauses):
            if index in drop:
                continue
            remap[index] = len(kept_clauses)
            kept_clauses.append(clause)
            kept_learned.append(self._clause_learned[index])
            kept_activity.append(activity[index])
        self._clauses = kept_clauses
        self._clause_learned = kept_learned
        self._clause_activity = kept_activity
        # Every stored clause sits in exactly the watch lists of its first two
        # literals (the propagation loop maintains that invariant), so the
        # watch tables can be reconstructed from those positions.
        watches: Dict[int, List[int]] = {}
        for new_index, clause in enumerate(kept_clauses):
            watches.setdefault(clause[0], []).append(new_index)
            watches.setdefault(clause[1], []).append(new_index)
        self._watches = watches
        reasons = self._reason
        for variable in range(1, self._num_vars + 1):
            if reasons[variable] is not None:
                reasons[variable] = remap[reasons[variable]]
        self.num_learned_clauses -= len(drop)
        self.clauses_deleted += len(drop)
        self.db_reductions += 1
        if self._max_learned is not None:
            # Geometric growth of the budget, as in MiniSat.
            self._max_learned = int(self._max_learned * 1.3) + 1

    # -- main entry points ----------------------------------------------------

    def propagate(self, assumptions: Sequence[int] = ()) -> Tuple[List[int], bool]:
        """Unit-propagate the clause database under *assumptions* without searching.

        Backtracks to level zero, enqueues every assumption on one new level
        and runs :meth:`_propagate`.  Returns the whole trail (the root-level
        literals, then the assumptions and what they force) and whether
        propagation reached a conflict; after a conflict the trail is
        partial.  The trail, the queue head (root units added since the last
        solve stay pending) and the saved phases are then restored and no
        counter moves, so a later solve that meets no conflict runs exactly as
        it would have without this call.  Watch lists may be reordered, which
        can steer the conflict analysis of a later solve that does conflict.
        """
        if self._unsat:
            return [], True
        assumptions = [int(literal) for literal in assumptions]
        for literal in assumptions:
            if literal == 0:
                raise SolverError("0 is not a valid assumption literal")
            self.ensure_variables(abs(literal))
        self._backtrack(0)
        queue_head, phase = self._queue_head, self._phase[:]
        stats = _SolverStats()
        self._new_level()
        conflict = False
        for literal in assumptions:
            if not self._enqueue(literal, None, stats):
                conflict = True
                break
        if not conflict:
            conflict = self._propagate(stats) is not None
        forced = list(self._trail)
        self._backtrack(0)
        self._queue_head, self._phase = queue_head, phase
        return forced, conflict

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: Optional[int] = None,
        budget: Optional[SolverBudget] = None,
    ) -> SATResult:
        """Decide satisfiability under *assumptions*.

        Parameters
        ----------
        assumptions:
            Literals assumed true for this call only.  Each is decided at its
            own decision level (MiniSat style), so clause learning under
            assumptions stays sound across calls.
        conflict_limit:
            Optional hard cap on the number of conflicts; when exceeded a
            :class:`SolverError` is raised (used by tests to bound runtime).
        budget:
            Optional :class:`~repro.solvers.budget.SolverBudget`.  Unlike
            ``conflict_limit`` this never raises: exceeding any cap returns
            a clean result with ``budget_exceeded=True`` after backtracking
            to level zero, so the solver stays reusable.
        """
        self.solve_calls += 1
        stats = _SolverStats()
        if self._unsat:
            return SATResult(False)
        assumptions = [int(lit) for lit in assumptions]
        for literal in assumptions:
            if literal == 0:
                raise SolverError("0 is not a valid assumption literal")
            self.ensure_variables(abs(literal))
        self._backtrack(0)

        # Luby restart schedule: interval i lasts `_LUBY_UNIT · luby(i)` conflicts.
        restart_number = 1
        restart_interval = _LUBY_UNIT * _luby(restart_number)
        conflicts_since_restart = 0
        if self._max_learned is None:
            self._max_learned = max(2000, self.num_problem_clauses // 2)
        # Index of the first assumption not yet known to be established.  It
        # only moves forward between conflicts; any backtrack (conflict or
        # restart) may unassign established assumptions, so it resets there.
        next_assumption = 0

        budget_conflicts = budget.max_conflicts if budget is not None else None
        budget_propagations = budget.max_propagations if budget is not None else None
        deadline = None
        if budget is not None and budget.wall_seconds is not None:
            deadline = perf_counter() + budget.wall_seconds

        def accumulate_totals() -> None:
            self.total_conflicts += stats.conflicts
            self.total_decisions += stats.decisions
            self.total_propagations += stats.propagations
            self.total_restarts += stats.restarts

        def finish(result: SATResult) -> SATResult:
            result.conflicts = stats.conflicts
            result.decisions = stats.decisions
            result.propagations = stats.propagations
            result.restarts = stats.restarts
            accumulate_totals()
            return result

        def budget_spent() -> SATResult:
            # Level zero keeps the trail (and the session) reusable; learned
            # clauses and activities are retained as a warm start.
            self._backtrack(0)
            return finish(SATResult(False, budget_exceeded=True))

        while True:
            conflict_index = self._propagate(stats)
            if budget_propagations is not None and stats.propagations >= budget_propagations:
                return budget_spent()
            if deadline is not None and perf_counter() > deadline:
                return budget_spent()
            if conflict_index is not None:
                stats.conflicts += 1
                conflicts_since_restart += 1
                if conflict_limit is not None and stats.conflicts > conflict_limit:
                    self._backtrack(0)
                    accumulate_totals()
                    raise SolverError(f"conflict limit of {conflict_limit} exceeded")
                if self._current_level() == 0:
                    # Conflict independent of any assumption: the clause
                    # database itself is unsatisfiable, permanently.
                    self._unsat = True
                    return finish(SATResult(False))
                if budget_conflicts is not None and stats.conflicts >= budget_conflicts:
                    return budget_spent()
                learned, backjump = self._analyze(conflict_index)
                self._backtrack(backjump)
                next_assumption = 0
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None, stats):
                        self._unsat = True
                        return finish(SATResult(False))
                else:
                    self._clauses.append(learned)
                    self._clause_learned.append(True)
                    self._clause_activity.append(0.0)
                    clause_index = len(self._clauses) - 1
                    self._watch(learned[0], clause_index)
                    self._watch(learned[1], clause_index)
                    self._bump_clause(clause_index)
                    self._enqueue(learned[0], clause_index, stats)
                    self.num_learned_clauses += 1
                self._decay_activities()
                if self.num_learned_clauses > self._max_learned:
                    self._reduce_learned_db()
                if conflicts_since_restart >= restart_interval:
                    stats.restarts += 1
                    conflicts_since_restart = 0
                    restart_number += 1
                    restart_interval = _LUBY_UNIT * _luby(restart_number)
                    self._backtrack(0)
                    next_assumption = 0
                continue

            # No conflict: first re-establish pending assumptions, then branch.
            pending = None
            while next_assumption < len(assumptions):
                literal = assumptions[next_assumption]
                value = self._value(literal)
                if value == _TRUE:
                    next_assumption += 1
                    continue
                if value == _FALSE:
                    # Every decision on the trail is an assumption at this
                    # point, so the falsification is forced by the clause
                    # database together with the assumptions alone.
                    return finish(SATResult(False))
                pending = literal
                break
            if pending is not None:
                self._new_level()
                self._enqueue(pending, None, stats)
                next_assumption += 1
                continue

            variable = self._pick_branch_variable()
            if variable is None:
                model = {
                    v: self._assignment[v] == _TRUE for v in range(1, self._num_vars + 1)
                }
                return finish(SATResult(True, model=model))
            stats.decisions += 1
            self._new_level()
            literal = variable if self._phase[variable] else -variable
            self._enqueue(literal, None, stats)


def solve(
    cnf: CNF,
    assumptions: Sequence[int] = (),
    conflict_limit: Optional[int] = None,
    budget: Optional[SolverBudget] = None,
) -> SATResult:
    """Solve *cnf* under *assumptions* with a fresh :class:`CDCLSolver`."""
    return CDCLSolver(cnf).solve(assumptions, conflict_limit=conflict_limit, budget=budget)
