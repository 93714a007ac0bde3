"""The standalone unit propagator ``DeduceOrder`` used to run on, kept as a reference.

Exhaustive unit propagation over flat occurrence lists of a :class:`CNF`:
unit and empty clauses seed the queue in clause order, then the injected
units, and every clause containing a falsified literal is rescanned.  The
tests compare :meth:`repro.solvers.session.SolverSession.propagate` with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from tests.solvers._cnf_reference import CNF


@dataclass
class PropagationResult:
    """Outcome of exhaustive unit propagation.

    Attributes
    ----------
    forced_literals:
        Literals forced true by propagation, in the order they were derived.
    conflict:
        ``True`` when propagation derived the empty clause (the formula has no
        model); the forced literals derived up to that point are still
        reported.
    """

    forced_literals: List[int] = field(default_factory=list)
    conflict: bool = False


class _PropagationIndex:
    """Occurrence index over an append-only clause list, extended in place.

    ``occurrences[2·v]`` / ``occurrences[2·v + 1]`` hold the positions of the
    clauses containing the positive / negative literal of variable ``v``;
    ``events`` records the empty and one-literal clauses in clause order so a
    propagation run can replay its seeding phase without rescanning the
    formula.
    """

    __slots__ = ("clause_list", "occurrences", "events", "synced_clauses")

    def __init__(self, clause_list: List[Sequence[int]]) -> None:
        self.clause_list = clause_list
        self.occurrences: List[List[int]] = []
        #: ``(position, literal)`` per unit clause, ``(position, 0)`` per empty clause.
        self.events: List[tuple] = []
        self.synced_clauses = 0

    def sync(self) -> None:
        """Index the clauses appended since the last call."""
        clauses = self.clause_list
        total = len(clauses)
        if self.synced_clauses == total:
            return
        occurrences = self.occurrences
        for position in range(self.synced_clauses, total):
            clause = clauses[position]
            if len(clause) == 0:
                self.events.append((position, 0))
                continue
            for literal in clause:
                variable = literal if literal > 0 else -literal
                index = (variable << 1) | (literal < 0)
                if index >= len(occurrences):
                    occurrences.extend([] for _ in range(index + 1 - len(occurrences)))
                occurrences[index].append(position)
            if len(clause) == 1:
                self.events.append((position, clause[0]))
        self.synced_clauses = total


def _index_for(cnf: CNF) -> _PropagationIndex:
    """Return the (possibly freshly built) occurrence index of *cnf*.

    The index is cached on the formula object itself; ``CNF`` only ever
    appends clauses, so the cache stays valid and is simply extended.  A
    formula whose clause list was replaced (``copy()`` creates a new object)
    gets a fresh index.
    """
    clauses = cnf._clauses  # the CNF's own append-only list
    index = getattr(cnf, "_propagation_index", None)
    if index is None or index.clause_list is not clauses:
        index = _PropagationIndex(clauses)
        cnf._propagation_index = index
    index.sync()
    return index


def propagate_units(cnf: CNF, extra_units: Sequence[int] = ()) -> PropagationResult:
    """Exhaustively apply the unit-clause rule to *cnf*.

    Parameters
    ----------
    cnf:
        The formula to propagate over (not modified).
    extra_units:
        Additional literals assumed true before propagation starts (used by
        the deduction algorithms to inject user-validated facts).
    """
    result = PropagationResult()
    index = _index_for(cnf)
    clauses = index.clause_list
    occurrences = index.occurrences
    num_occurrence_lists = len(occurrences)

    highest = cnf.num_variables
    for literal in extra_units:
        variable = abs(int(literal))
        if variable > highest:
            highest = variable
    # Per-variable value: 0 unassigned, 1 true, 2 false.
    assignment = bytearray(highest + 1)
    alive = bytearray(b"\x01") * len(clauses)
    forced = result.forced_literals
    queue: List[int] = []

    def enqueue(literal: int) -> bool:
        variable = literal if literal > 0 else -literal
        desired = 1 if literal > 0 else 2
        current = assignment[variable]
        if current:
            return current == desired
        assignment[variable] = desired
        forced.append(literal)
        queue.append(literal)
        return True

    # Seed: empty and unit clauses in clause order, then the injected units.
    for _, literal in index.events:
        if literal == 0 or not enqueue(literal):
            result.conflict = True
            return result
    for literal in extra_units:
        if not enqueue(int(literal)):
            result.conflict = True
            return result

    head = 0
    while head < len(queue):
        literal = queue[head]
        head += 1
        variable = literal if literal > 0 else -literal
        literal_index = (variable << 1) | (literal < 0)
        negation_index = literal_index ^ 1
        # Clauses containing the literal are satisfied.
        if literal_index < num_occurrence_lists:
            for position in occurrences[literal_index]:
                alive[position] = 0
        # Clauses containing the negation lose a literal.
        if negation_index < num_occurrence_lists:
            for position in occurrences[negation_index]:
                if not alive[position]:
                    continue
                satisfied = False
                unassigned_count = 0
                unit_literal = 0
                for lit in clauses[position]:
                    v = lit if lit > 0 else -lit
                    value = assignment[v]
                    if not value:
                        if not unassigned_count:
                            unit_literal = lit
                        unassigned_count += 1
                    elif (value == 1) == (lit > 0):
                        satisfied = True
                        break
                if satisfied:
                    alive[position] = 0
                    continue
                if unassigned_count == 0:
                    result.conflict = True
                    return result
                if unassigned_count == 1:
                    alive[position] = 0
                    if not enqueue(unit_literal):
                        result.conflict = True
                        return result
    return result
