"""The CDCL SAT solver: a flat clause arena.

This module replaces the MiniSAT binary used in the paper's experiments.  It
implements the standard conflict-driven clause-learning loop — two-literal
watching, first-UIP conflict analysis with clause learning, heap-backed VSIDS
activities, phase saving, Luby restarts and activity-sorted learned-clause
database reduction (keep-half) — over flat data: every hot structure is a
contiguous typed buffer instead of an object graph.

* **clause arena** — all clause literals live in one ``array('i')``; a clause
  is an ``(offset, length)`` pair into it, so clause access is pointer
  arithmetic and the watched-literal swaps are in-place integer writes;
* **literal-indexed watch lists** — ``watches[2·v]`` / ``watches[2·v+1]``
  (no hashing on the propagation path);
* **typed per-variable state** — assignment (``array('b')``, ±1/0), decision
  level and reason (``array('i')``, reason ``-1`` = none), saved phase
  (``bytearray``) and VSIDS activity (``array('d')``);
* **inlined unit propagation** — the propagation loop reads the arena
  directly; there is no per-literal function call anywhere on it.

The solver is *incremental* in the MiniSat sense: clauses can be added between
:meth:`ArenaSolver.solve` calls and assumptions are decided at their own
decision levels, so every learned clause is implied by the problem clauses
alone and can be retained across calls.  That is what makes the repeated
queries of the interactive framework (validity check, per-candidate
refutations, MaxSAT probing on the same Φ(S_e)) cheap.

:func:`acquire_solver` draws a solver from a small per-process pool and
:meth:`ArenaSolver.reset` recycles the per-variable buffers, so the thousands
of small Φ(S_e) instances of a resolution run amortise allocation instead of
rebuilding a solver each.  :class:`~repro.solvers.session.ArenaSession`, which
takes its solver from that pool, exposes the solver to the resolution stack.

The solver is deterministic: given the same clause/solve sequence it makes the
same decisions, and a pooled solver after :meth:`~ArenaSolver.reset` behaves
exactly like a fresh one.  Round statistics surface the solver counters and
the goldens record models, so ``tests/solvers/test_arena.py`` checks both.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import profiling
from repro.core.errors import SolverError
from repro.solvers.budget import SolverBudget

__all__ = ["ArenaSolver", "SATResult", "acquire_solver", "release_solver"]


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


class ArenaSolver:
    """Incremental CDCL solver over a flat clause arena.

    Clauses are appended with :meth:`load_clauses`, also between
    :meth:`solve` calls.  Assumptions are decided at dedicated decision levels (never mixed
    into level 0), so clauses learned under assumptions are consequences of
    the clause database alone and stay valid for every later call.  See the
    module docstring for the data layout.
    """

    def __init__(self) -> None:
        self._num_vars = 0
        # Clause storage: literals in one contiguous buffer, clause i at
        # arena[offset[i] : offset[i] + length[i]].
        self._arena = array("i")
        self._clause_offset: List[int] = []
        self._clause_length: List[int] = []
        self._clause_learned = bytearray()
        self._clause_activity = array("d")
        # Watch lists indexed by literal: slot 2·v for v, 2·v+1 for ¬v.
        self._watches: List[List[int]] = [[], []]
        # 1-indexed per-variable state (index 0 unused).
        self._assignment = array("b", [_UNASSIGNED])
        self._level = array("i", [0])
        self._reason = array("i", [-1])
        self._phase = bytearray(1)
        self._activity = array("d", [0.0])
        self._activity_increment = 1.0
        self._activity_decay = 0.95
        self._clause_activity_increment = 1.0
        self._clause_activity_decay = 0.999
        # Branching heap: binary max-heap over variable indices ordered by
        # (activity desc, index asc); `_heap_pos[v]` is v's slot or -1.
        self._heap: List[int] = []
        self._heap_pos = array("i", [-1])
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

    # -- bookkeeping -----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        """Number of variables the solver currently tracks."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Total clause-database size (problem + learned clauses)."""
        return len(self._clause_offset)

    def ensure_variables(self, count: int) -> None:
        """Grow the per-variable state up to variable index *count*.

        After a :meth:`reset` the buffers beyond ``_num_vars`` are already
        allocated (and zeroed), so regrowth into them is free — that is the
        batch-solving amortisation.
        """
        while self._num_vars < count:
            self._num_vars += 1
            variable = self._num_vars
            if variable >= len(self._assignment):
                self._assignment.append(_UNASSIGNED)
                self._level.append(0)
                self._reason.append(-1)
                self._phase.append(0)
                self._activity.append(0.0)
                self._heap_pos.append(-1)
                self._watches.append([])
                self._watches.append([])
            self._heap_insert(variable)

    def reset(self) -> None:
        """Return to the empty-formula state, keeping the allocated buffers.

        The per-variable arrays and watch lists are zeroed in place rather
        than reallocated; a subsequent ``ensure_variables`` grows into the
        warm capacity.  This is what makes one pooled solver cheap to reuse
        across many small formulas (see :func:`acquire_solver`).
        """
        for variable in range(1, self._num_vars + 1):
            self._assignment[variable] = _UNASSIGNED
            self._level[variable] = 0
            self._reason[variable] = -1
            self._phase[variable] = 0
            self._activity[variable] = 0.0
            self._heap_pos[variable] = -1
        for watching in self._watches:
            del watching[:]
        del self._arena[:]
        del self._clause_offset[:]
        del self._clause_length[:]
        del self._clause_learned[:]
        del self._clause_activity[:]
        del self._heap[:]
        del self._trail[:]
        del self._trail_level_start[1:]
        self._num_vars = 0
        self._queue_head = 0
        self._unsat = False
        self._activity_increment = 1.0
        self._clause_activity_increment = 1.0
        self._max_learned = None
        self.solve_calls = 0
        self.num_problem_clauses = 0
        self.num_learned_clauses = 0
        self.total_conflicts = 0
        self.total_decisions = 0
        self.total_propagations = 0
        self.total_restarts = 0
        self.db_reductions = 0
        self.clauses_deleted = 0

    # -- clause addition -------------------------------------------------------

    def _append_clause(self, literals: Sequence[int], learned: bool) -> int:
        index = len(self._clause_offset)
        self._clause_offset.append(len(self._arena))
        self._clause_length.append(len(literals))
        self._arena.extend(literals)
        self._clause_learned.append(1 if learned else 0)
        self._clause_activity.append(0.0)
        return index

    def _watch(self, literal: int, clause_index: int) -> None:
        variable = literal if literal > 0 else -literal
        self._watches[(variable << 1) | (literal < 0)].append(clause_index)

    def load_clauses(self, clauses: Iterable[Sequence[int]], num_variables: int) -> None:
        """Append *clauses* and track variables up to *num_variables*, in one call.

        Each clause is deduplicated, dropped when it is a tautology and
        simplified against the root-level (level-0) assignment: root-falsified
        literals are dropped and root-satisfied clauses are not stored at all,
        both sound because level-0 assignments are logical consequences of
        the clause database.  An empty clause or a contradicted unit makes the
        formula unsatisfiable and the remaining clauses are skipped.  The
        buffers, watches, trail and heap come out exactly as after loading the
        clauses one call at a time and then ``ensure_variables(num_variables)``,
        but the solver backtracks and grows its variables once, at the first
        clause that is not a tautology.  Literals must be ints.
        """
        if not self._unsat:
            ready = False
            assignment = self._assignment
            for literals in clauses:
                seen: Dict[int, None] = {}
                highest = 0
                for lit in literals:
                    if lit == 0:
                        raise SolverError("0 is not a valid literal")
                    if -lit in seen:
                        break  # tautology
                    seen[lit] = None
                    variable = lit if lit > 0 else -lit
                    if variable > highest:
                        highest = variable
                else:
                    if not ready:
                        ready = True
                        self._backtrack(0)
                        self.ensure_variables(num_variables)
                    if highest > self._num_vars:
                        self.ensure_variables(highest)
                    kept: List[int] = []
                    for lit in seen:
                        value = assignment[lit] if lit > 0 else -assignment[-lit]
                        if value == _TRUE:
                            break  # satisfied at the root level forever
                        if value != _FALSE:
                            kept.append(lit)
                    else:
                        if len(kept) > 1:
                            index = self._append_clause(kept, learned=False)
                            self._watch(kept[0], index)
                            self._watch(kept[1], index)
                            self.num_problem_clauses += 1
                        elif not kept or not self._enqueue(kept[0], -1, None):
                            self._unsat = True
                            break
        self.ensure_variables(num_variables)

    # -- low-level machinery ---------------------------------------------------

    def _enqueue(self, literal: int, reason_clause: int, stats: Optional[_SolverStats]) -> bool:
        variable = literal if literal > 0 else -literal
        value = self._assignment[variable]
        current = value if literal > 0 else -value
        if current == _TRUE:
            return True
        if current == _FALSE:
            return False
        self._assignment[variable] = _TRUE if literal > 0 else _FALSE
        self._level[variable] = len(self._trail_level_start) - 1
        self._reason[variable] = reason_clause
        self._phase[variable] = 1 if literal > 0 else 0
        self._trail.append(literal)
        if stats is not None:
            stats.propagations += 1
        return True

    def _propagate(self, stats: _SolverStats) -> int:
        """Run unit propagation; return a conflicting clause index or ``-1``.

        This is the hot loop: all clause reads are direct arena indexing and
        literal values are computed inline from the assignment array.
        """
        arena = self._arena
        offset = self._clause_offset
        length = self._clause_length
        watches = self._watches
        assignment = self._assignment
        trail = self._trail
        while self._queue_head < len(trail):
            literal = trail[self._queue_head]
            self._queue_head += 1
            falsified = -literal
            variable = falsified if falsified > 0 else -falsified
            watching = watches[(variable << 1) | (falsified < 0)]
            index = 0
            while index < len(watching):
                clause_index = watching[index]
                base = offset[clause_index]
                first = arena[base]
                # Ensure the falsified literal sits at position 1.
                if first == falsified:
                    first = arena[base + 1]
                    arena[base] = first
                    arena[base + 1] = falsified
                first_value = assignment[first] if first > 0 else -assignment[-first]
                if first_value == _TRUE:
                    index += 1
                    continue
                # Look for a replacement watch.
                position = base + 2
                end = base + length[clause_index]
                replacement = -1
                while position < end:
                    lit = arena[position]
                    if (assignment[lit] if lit > 0 else -assignment[-lit]) != _FALSE:
                        replacement = position
                        break
                    position += 1
                if replacement >= 0:
                    lit = arena[replacement]
                    arena[replacement] = falsified
                    arena[base + 1] = lit
                    watching[index] = watching[-1]
                    watching.pop()
                    lit_variable = lit if lit > 0 else -lit
                    watches[(lit_variable << 1) | (lit < 0)].append(clause_index)
                    continue
                # No replacement: clause is unit or conflicting.
                if first_value == _FALSE:
                    return clause_index
                self._enqueue(first, clause_index, stats)
                index += 1
        return -1

    # -- branching heap (VSIDS order) -----------------------------------------

    def _heap_sift_up(self, slot: int) -> None:
        heap = self._heap
        position = self._heap_pos
        activity = self._activity
        variable = heap[slot]
        variable_activity = activity[variable]
        while slot > 0:
            parent_slot = (slot - 1) >> 1
            parent = heap[parent_slot]
            parent_activity = activity[parent]
            # Priority: higher activity first, lower index on ties.
            if not (
                variable_activity > parent_activity
                or (variable_activity == parent_activity and variable < parent)
            ):
                break
            heap[slot] = parent
            position[parent] = slot
            slot = parent_slot
        heap[slot] = variable
        position[variable] = slot

    def _heap_sift_down(self, slot: int) -> None:
        heap = self._heap
        position = self._heap_pos
        activity = self._activity
        variable = heap[slot]
        variable_activity = activity[variable]
        size = len(heap)
        while True:
            child_slot = 2 * slot + 1
            if child_slot >= size:
                break
            right_slot = child_slot + 1
            child = heap[child_slot]
            child_activity = activity[child]
            if right_slot < size:
                right = heap[right_slot]
                right_activity = activity[right]
                if right_activity > child_activity or (
                    right_activity == child_activity and right < child
                ):
                    child_slot = right_slot
                    child = right
                    child_activity = right_activity
            if not (
                child_activity > variable_activity
                or (child_activity == variable_activity and child < variable)
            ):
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

    def _heap_pop(self) -> int:
        heap = self._heap
        if not heap:
            return 0
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
        activity = self._activity
        activity[variable] += self._activity_increment
        if activity[variable] > 1e100:
            for index in range(1, self._num_vars + 1):
                activity[index] *= 1e-100
            self._activity_increment *= 1e-100
        slot = self._heap_pos[variable]
        if slot >= 0:
            self._heap_sift_up(slot)

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

    # -- conflict analysis -----------------------------------------------------

    def _analyze(self, conflict_index: int) -> Tuple[List[int], int]:
        """First-UIP analysis; returns the learned clause and the backjump level."""
        arena = self._arena
        offset = self._clause_offset
        clause_length = self._clause_length
        learned: List[int] = []
        seen = bytearray(self._num_vars + 1)
        counter = 0
        literal = 0  # 0 = "no pivot yet" (a literal is never 0)
        self._bump_clause(conflict_index)
        base = offset[conflict_index]
        end = base + clause_length[conflict_index]
        current_level = len(self._trail_level_start) - 1
        trail = self._trail
        trail_index = len(trail) - 1
        level = self._level
        reason = self._reason

        while True:
            position = base
            while position < end:
                other = arena[position]
                position += 1
                if literal != 0 and other == literal:
                    continue
                variable = other if other > 0 else -other
                if seen[variable] or level[variable] == 0:
                    continue
                seen[variable] = 1
                self._bump(variable)
                if level[variable] == current_level:
                    counter += 1
                else:
                    learned.append(other)
            # Pick the next literal to resolve on from the trail.
            while True:
                pivot = trail[trail_index]
                if seen[pivot if pivot > 0 else -pivot]:
                    break
                trail_index -= 1
            literal = -trail[trail_index]
            variable = literal if literal > 0 else -literal
            seen[variable] = 0
            counter -= 1
            trail_index -= 1
            if counter == 0:
                break
            reason_index = reason[variable]
            if reason_index < 0:  # pragma: no cover - defensive
                break
            self._bump_clause(reason_index)
            base = offset[reason_index]
            end = base + clause_length[reason_index]

        learned = [literal] + learned if literal != 0 else learned
        if len(learned) == 1:
            return learned, 0
        backjump = 0
        for lit in learned[1:]:
            lit_level = level[lit if lit > 0 else -lit]
            if lit_level > backjump:
                backjump = lit_level
        # Place a literal of the backjump level at position 1 (watch invariant).
        for position in range(1, len(learned)):
            lit = learned[position]
            if level[lit if lit > 0 else -lit] == backjump:
                learned[1], learned[position] = learned[position], learned[1]
                break
        return learned, backjump

    def _backtrack(self, target_level: int) -> None:
        starts = self._trail_level_start
        if target_level + 1 < len(starts):
            cutoff = starts[target_level + 1]
        else:
            cutoff = len(self._trail)
        trail = self._trail
        assignment = self._assignment
        reason = self._reason
        for index in range(cutoff, len(trail)):
            literal = trail[index]
            variable = literal if literal > 0 else -literal
            assignment[variable] = _UNASSIGNED
            reason[variable] = -1
            self._heap_insert(variable)
        del trail[cutoff:]
        del starts[target_level + 1 :]
        if self._queue_head > len(trail):
            self._queue_head = len(trail)

    def _new_level(self) -> None:
        self._trail_level_start.append(len(self._trail))

    def _pick_branch_variable(self) -> int:
        # Lazy deletion: assigned variables stay in the heap until popped.
        # Every unassigned variable is in the heap (insertion on creation and
        # on backtrack), so an empty heap (0) means a total assignment.
        assignment = self._assignment
        while True:
            variable = self._heap_pop()
            if variable == 0 or assignment[variable] == _UNASSIGNED:
                return variable

    # -- learned-clause database reduction -------------------------------------

    def _reduce_learned_db(self) -> None:
        """Drop the less active half of the learned clauses (MiniSat style).

        Deleting learned clauses is always sound — they are consequences of
        the problem clauses — so sessions stay incremental across the
        reduction.  Clauses that are currently the reason of an assignment,
        and binary clauses, are always kept.  The arena is compacted:
        surviving clauses are copied into a fresh buffer and the watch lists
        are rebuilt from their first two literals.
        """
        offset = self._clause_offset
        clause_length = self._clause_length
        learned_flags = self._clause_learned
        activity = self._clause_activity
        reason = self._reason
        locked = {reason[variable] for variable in range(1, self._num_vars + 1) if reason[variable] >= 0}
        deletable = [
            index
            for index in range(len(offset))
            if learned_flags[index] and clause_length[index] > 2 and index not in locked
        ]
        drop = set(sorted(deletable, key=lambda index: activity[index])[: len(deletable) // 2])
        if not drop:
            # Nothing deletable (the learned DB is dominated by binary/locked
            # clauses).  Still grow the budget, otherwise every subsequent
            # conflict would re-scan the whole clause list for nothing.
            if self._max_learned is not None:
                self._max_learned = int(self._max_learned * 1.3) + 1
            return
        arena = self._arena
        new_arena = array("i")
        new_offset: List[int] = []
        new_length: List[int] = []
        new_learned = bytearray()
        new_activity = array("d")
        remap: Dict[int, int] = {}
        for index in range(len(offset)):
            if index in drop:
                continue
            remap[index] = len(new_offset)
            base = offset[index]
            count = clause_length[index]
            new_offset.append(len(new_arena))
            new_length.append(count)
            new_arena.extend(arena[base : base + count])
            new_learned.append(learned_flags[index])
            new_activity.append(activity[index])
        self._arena = new_arena
        self._clause_offset = new_offset
        self._clause_length = new_length
        self._clause_learned = new_learned
        self._clause_activity = new_activity
        # Every stored clause sits in exactly the watch lists of its first two
        # literals, so the watch lists can be reconstructed from those positions.
        for watching in self._watches:
            del watching[:]
        watches = self._watches
        for new_index in range(len(new_offset)):
            base = new_offset[new_index]
            for lit in (new_arena[base], new_arena[base + 1]):
                variable = lit if lit > 0 else -lit
                watches[(variable << 1) | (lit < 0)].append(new_index)
        for variable in range(1, self._num_vars + 1):
            if reason[variable] >= 0:
                reason[variable] = remap[reason[variable]]
        self.num_learned_clauses -= len(drop)
        self.clauses_deleted += len(drop)
        self.db_reductions += 1
        if self._max_learned is not None:
            # Geometric growth of the budget, as in MiniSat.
            self._max_learned = int(self._max_learned * 1.3) + 1

    # -- forgetting what a solve learned ---------------------------------------

    def mark(self) -> Tuple[int, int, int]:
        """The clause count, root trail length and queue head, at level zero (see :meth:`forget`)."""
        self._backtrack(0)
        return len(self._clause_offset), len(self._trail), self._queue_head

    def forget(self, mark: Tuple[int, int, int]) -> None:
        """Drop the clauses and the root-level assignments added since *mark*.

        Taken just before a solve, *mark* lets the caller undo what the solve
        learned: its clauses (appended after every clause held at the mark)
        and the root units it derived.  A clause sits in the watch lists of
        its first two literals only, so those are the lists cleaned.  Root
        assignments the solve made by unit propagation over the other
        clauses go too; the next call derives them again.
        """
        clauses, root, queue_head = mark
        self._backtrack(0)
        arena, offset, watches = self._arena, self._clause_offset, self._watches
        for index in range(clauses, len(offset)):
            base = offset[index]
            for lit in (arena[base], arena[base + 1]):
                variable = lit if lit > 0 else -lit
                watches[(variable << 1) | (lit < 0)].remove(index)
        if clauses < len(offset):
            del arena[offset[clauses]:]
        del offset[clauses:]
        del self._clause_length[clauses:]
        del self._clause_learned[clauses:]
        del self._clause_activity[clauses:]
        self.num_learned_clauses = sum(self._clause_learned)
        for literal in self._trail[root:]:
            variable = literal if literal > 0 else -literal
            self._assignment[variable] = _UNASSIGNED
            self._reason[variable] = -1
            self._heap_insert(variable)
        del self._trail[root:]
        self._queue_head = queue_head

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
            if not self._enqueue(literal, -1, stats):
                conflict = True
                break
        if not conflict:
            conflict = self._propagate(stats) >= 0
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
        next_assumption = 0
        assignment = self._assignment
        # One flag read per solve; when profiling is off the loop below pays a
        # single truthiness check per phase boundary and nothing else.
        profile = profiling.enabled()

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
            if profile:
                phase_start = perf_counter()
                conflict_index = self._propagate(stats)
                profiling.add("propagate", perf_counter() - phase_start)
            else:
                conflict_index = self._propagate(stats)
            if budget_propagations is not None and stats.propagations >= budget_propagations:
                return budget_spent()
            if deadline is not None and perf_counter() > deadline:
                return budget_spent()
            if conflict_index >= 0:
                stats.conflicts += 1
                conflicts_since_restart += 1
                if conflict_limit is not None and stats.conflicts > conflict_limit:
                    self._backtrack(0)
                    accumulate_totals()
                    raise SolverError(f"conflict limit of {conflict_limit} exceeded")
                if len(self._trail_level_start) == 1:
                    # Conflict independent of any assumption: the clause
                    # database itself is unsatisfiable, permanently.
                    self._unsat = True
                    return finish(SATResult(False))
                if budget_conflicts is not None and stats.conflicts >= budget_conflicts:
                    return budget_spent()
                if profile:
                    phase_start = perf_counter()
                    learned, backjump = self._analyze(conflict_index)
                    profiling.add("analyze", perf_counter() - phase_start)
                else:
                    learned, backjump = self._analyze(conflict_index)
                self._backtrack(backjump)
                next_assumption = 0
                if len(learned) == 1:
                    if not self._enqueue(learned[0], -1, stats):
                        self._unsat = True
                        return finish(SATResult(False))
                else:
                    clause_index = self._append_clause(learned, learned=True)
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
            pending = 0
            while next_assumption < len(assumptions):
                literal = assumptions[next_assumption]
                value = assignment[literal] if literal > 0 else -assignment[-literal]
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
            if pending != 0:
                self._new_level()
                self._enqueue(pending, -1, stats)
                next_assumption += 1
                continue

            if profile:
                phase_start = perf_counter()
                variable = self._pick_branch_variable()
                profiling.add("decide", perf_counter() - phase_start)
            else:
                variable = self._pick_branch_variable()
            if variable == 0:
                model = {v: assignment[v] == _TRUE for v in range(1, self._num_vars + 1)}
                return finish(SATResult(True, model=model))
            stats.decisions += 1
            self._new_level()
            literal = variable if self._phase[variable] else -variable
            self._enqueue(literal, -1, stats)


# -- the per-process solver pool ------------------------------------------------

#: Recycled solvers; reset-on-acquire keeps the warm buffers, drops the state.
_SOLVER_POOL: List[ArenaSolver] = []
_SOLVER_POOL_LIMIT = 4


def acquire_solver() -> ArenaSolver:
    """Take a (reset) solver from the per-process pool, or build a fresh one."""
    if _SOLVER_POOL:
        solver = _SOLVER_POOL.pop()
        solver.reset()
        return solver
    return ArenaSolver()


def release_solver(solver: ArenaSolver) -> None:
    """Return *solver* to the pool (dropped when the pool is full)."""
    if len(_SOLVER_POOL) < _SOLVER_POOL_LIMIT:
        _SOLVER_POOL.append(solver)
