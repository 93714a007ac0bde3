"""A small DPLL solver and its solver session, kept as a test reference.

The CDCL solver in :mod:`repro.solvers.arena` is the package's one solver;
this explicit-stack DPLL solver is simple enough to be obviously correct, so
the tests cross-check the CDCL solver against it on random formulas and run
whole resolutions on :class:`DPLLSession` to check the arena session's
verdicts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import SolverError
from repro.solvers.arena import SATResult, acquire_solver, release_solver
from repro.solvers.session import SolverSession

from tests.solvers._cnf_reference import CNF


def _unit_propagate(
    clauses: Tuple[Tuple[int, ...], ...], assignment: Dict[int, bool]
) -> Optional[Tuple[Tuple[Tuple[int, ...], ...], Dict[int, bool]]]:
    """Repeatedly apply the unit-clause rule; return ``None`` on conflict."""
    clauses_list = list(clauses)
    assignment = dict(assignment)
    changed = True
    while changed:
        changed = False
        next_clauses = []
        for clause in clauses_list:
            satisfied = False
            remaining = []
            for lit in clause:
                variable = abs(lit)
                if variable in assignment:
                    if assignment[variable] == (lit > 0):
                        satisfied = True
                        break
                else:
                    remaining.append(lit)
            if satisfied:
                continue
            if not remaining:
                return None
            if len(remaining) == 1:
                lit = remaining[0]
                assignment[abs(lit)] = lit > 0
                changed = True
            else:
                next_clauses.append(tuple(remaining))
        clauses_list = next_clauses
    return tuple(clauses_list), assignment


def _dpll(clauses: Tuple[Tuple[int, ...], ...], assignment: Dict[int, bool]) -> Optional[Dict[int, bool]]:
    """Iterative DPLL over an explicit work stack.

    The branching order is identical to the classic recursive formulation
    (satisfying phase of the first literal of the first clause is tried
    first), but large entity encodings cannot overflow Python's recursion
    limit.  A stack frame is (clauses, base assignment, branch literal); the
    assignment copy for a branch is made only when the frame is actually
    popped, so abandoned alternatives cost nothing.
    """
    stack = [(clauses, assignment, None)]
    while stack:
        clauses, assignment, branch = stack.pop()
        if branch is not None:
            assignment = dict(assignment)
            assignment[abs(branch)] = branch > 0
        propagated = _unit_propagate(clauses, assignment)
        if propagated is None:
            continue
        clauses, assignment = propagated
        if not clauses:
            return assignment
        # Branch on the first literal of the first clause (simple but adequate).
        literal = clauses[0][0]
        # LIFO: push the alternative branch first so the satisfying phase of
        # the branching literal is explored next, as in the recursive version.
        stack.append((clauses, assignment, -literal))
        stack.append((clauses, assignment, literal))
    return None


def dpll_solve(cnf: CNF, assumptions: Sequence[int] = ()) -> SATResult:
    """Decide satisfiability of *cnf* under *assumptions* with plain DPLL."""
    assignment: Dict[int, bool] = {}
    for literal in assumptions:
        variable = abs(literal)
        desired = literal > 0
        if assignment.get(variable, desired) != desired:
            return SATResult(False)
        assignment[variable] = desired
    model = _dpll(tuple(tuple(clause) for clause in cnf.clauses), assignment)
    if model is None:
        return SATResult(False)
    complete = {variable: model.get(variable, False) for variable in range(1, cnf.num_variables + 1)}
    return SATResult(True, model=complete)


class DPLLSession(SolverSession):
    """Stateless reference session: every call re-solves the stored CNF.

    Nothing carries over between calls (DPLL has no learning), but the session
    interface lets the same resolution code run against the simple,
    obviously-correct solver, e.g. through
    ``IncrementalEncoder(spec, session=DPLLSession())``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.cnf = CNF()

    def _load_clauses(self, clauses: Sequence[Sequence[int]], num_variables: int) -> None:
        self.cnf.add_clauses(clauses)
        if num_variables > self.cnf.num_variables:
            self.cnf.num_variables = num_variables

    def _solve(self, assumptions: Sequence[int], conflict_limit: Optional[int]) -> SATResult:
        if conflict_limit is not None or self.budget is not None:
            raise SolverError("the DPLL reference supports neither conflict limits nor budgets")
        highest = max((abs(int(lit)) for lit in assumptions), default=0)
        if highest > self.cnf.num_variables:
            self.cnf.num_variables = highest
        return dpll_solve(self.cnf, assumptions)

    def propagate(self, assumptions: Sequence[int] = ()) -> Tuple[List[int], bool]:
        """Propagate the stored CNF on a pooled arena solver (DPLL has no trail to reuse)."""
        solver = acquire_solver()
        try:
            solver.load_clauses(self.cnf.clauses, self.cnf.num_variables)
            return solver.propagate(assumptions)
        finally:
            release_solver(solver)
