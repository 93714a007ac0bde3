"""A small DPLL solver used as a reference implementation.

The CDCL solver in :mod:`repro.solvers.arena` is the work-horse; this
explicit-stack DPLL solver exists for two reasons:

* it is simple enough to be obviously correct, so the test suite uses it to
  cross-check the CDCL solver on randomly generated formulas, and
* the ablation benchmark compares the two to show that clause learning matters
  even at entity scale.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.solvers.cnf import CNF
from repro.solvers.arena import SATResult

__all__ = ["dpll_solve"]


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
