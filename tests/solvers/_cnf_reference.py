"""Propositional formulas in conjunctive normal form, kept as a test reference.

Literals follow the DIMACS convention: variables are positive integers
``1, 2, ...``; a literal is a variable (positive occurrence) or its negation
(negative integer).  A clause is a tuple of literals; a :class:`CNF` is a list
of clauses plus the variable count.  The package keeps Φ only in solver
sessions; the solver tests build formulas with :class:`CNF`, and
:func:`loaded` and :func:`solve` put one on a fresh
:class:`~repro.solvers.arena.ArenaSolver`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.errors import SolverError
from repro.solvers.arena import ArenaSolver, SATResult
from repro.solvers.budget import SolverBudget

Clause = Tuple[int, ...]


class CNF:
    """A CNF formula: a multiset of clauses over integer variables."""

    def __init__(self, clauses: Iterable[Sequence[int]] = (), num_variables: int = 0) -> None:
        self._clauses: List[Clause] = []
        self._num_variables = num_variables
        for clause in clauses:
            self.add_clause(clause)

    # -- construction -------------------------------------------------------

    def add_clause(self, literals: Sequence[int]) -> None:
        """Append a clause (a disjunction of literals)."""
        clause = tuple(dict.fromkeys(int(lit) for lit in literals))
        if any(lit == 0 for lit in clause):
            raise SolverError("0 is not a valid literal")
        for lit in clause:
            if abs(lit) > self._num_variables:
                self._num_variables = abs(lit)
        self._clauses.append(clause)

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        """Append several clauses."""
        for clause in clauses:
            self.add_clause(clause)

    def copy(self) -> "CNF":
        """Return an independent copy."""
        clone = CNF(num_variables=self._num_variables)
        clone._clauses = list(self._clauses)
        return clone

    def extended(self, clauses: Iterable[Sequence[int]]) -> "CNF":
        """Return a copy of this formula with *clauses* appended."""
        clone = self.copy()
        clone.add_clauses(clauses)
        return clone

    # -- access -------------------------------------------------------------

    @property
    def clauses(self) -> Tuple[Clause, ...]:
        """The clauses of the formula."""
        return tuple(self._clauses)

    @property
    def num_variables(self) -> int:
        """The highest variable index mentioned (or set explicitly)."""
        return self._num_variables

    @num_variables.setter
    def num_variables(self, value: int) -> None:
        if value < self._num_variables:
            raise SolverError("cannot shrink the variable count below the referenced maximum")
        self._num_variables = value

    def __len__(self) -> int:
        return len(self._clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self._clauses)

    def variables(self) -> Set[int]:
        """Set of variables that actually occur in some clause."""
        return {abs(lit) for clause in self._clauses for lit in clause}

    def has_empty_clause(self) -> bool:
        """Return ``True`` when the formula contains the empty (unsatisfiable) clause."""
        return any(len(clause) == 0 for clause in self._clauses)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, assignment: Dict[int, bool]) -> Optional[bool]:
        """Evaluate the formula under a (possibly partial) assignment.

        Returns ``True``/``False`` when the value is determined, ``None`` when
        some clause is still undecided.
        """
        undecided = False
        for clause in self._clauses:
            clause_value: Optional[bool] = False
            for lit in clause:
                variable = abs(lit)
                if variable not in assignment:
                    clause_value = None
                    continue
                if assignment[variable] == (lit > 0):
                    clause_value = True
                    break
            if clause_value is False:
                return False
            if clause_value is None:
                undecided = True
        return None if undecided else True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"CNF(variables={self._num_variables}, clauses={len(self._clauses)})"


def loaded(cnf: CNF) -> ArenaSolver:
    """A fresh :class:`ArenaSolver` loaded with *cnf*."""
    solver = ArenaSolver()
    solver.load_clauses(cnf.clauses, cnf.num_variables)
    return solver


def solve(
    cnf: CNF,
    assumptions: Sequence[int] = (),
    conflict_limit: Optional[int] = None,
    budget: Optional[SolverBudget] = None,
) -> SATResult:
    """Solve *cnf* under *assumptions* on a fresh :class:`ArenaSolver`."""
    return loaded(cnf).solve(assumptions, conflict_limit=conflict_limit, budget=budget)
