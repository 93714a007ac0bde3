"""Partial (group) MaxSAT.

``GetSug`` (paper Section V-C) needs to find, inside a clique of derivation
rules, a maximum subset of rules that has no conflict with the specification:
the hard part is the CNF Φ(S_e), each rule contributes a *group* of soft unit
literals ("this rule's value is the most current one"), and we want to keep as
many whole groups as possible.  The paper uses an off-the-shelf MaxSAT solver
(WalkSAT); this module provides the same capability on top of our own CDCL
solver:

* :func:`solve_group_maxsat` — exact, via per-group selector variables and a
  descending linear search on the number of selected groups (cardinality
  enforced with a straightforward "at least k of n selectors" encoding that is
  cheap because the number of groups is at most |R|);
* a ``strategy="greedy"`` mode that mimics a local-search MaxSAT solver: it
  adds groups one by one in a deterministic order, keeping a group only if the
  formula stays satisfiable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.errors import SolverError
from repro.solvers.cnf import CNF
from repro.solvers.arena import solve
from repro.solvers.session import SolverSession

__all__ = ["MaxSATResult", "solve_group_maxsat"]


@dataclass
class MaxSATResult:
    """Outcome of a group-MaxSAT call.

    Attributes
    ----------
    selected_groups:
        Indices (into the input group list) of the groups kept.
    hard_satisfiable:
        ``False`` when the hard clauses alone are unsatisfiable, in which case
        no groups can be selected.
    sat_calls:
        Number of SAT-solver invocations used.
    """

    selected_groups: Tuple[int, ...]
    hard_satisfiable: bool
    sat_calls: int = 0

    def __len__(self) -> int:
        return len(self.selected_groups)


def solve_group_maxsat(
    hard: Optional[CNF],
    groups: Sequence[Sequence[int]],
    strategy: str = "exact",
    session: Optional[SolverSession] = None,
    assumptions: Sequence[int] = (),
) -> MaxSATResult:
    """Select a maximum number of literal groups consistent with *hard*.

    Parameters
    ----------
    hard:
        Hard clauses that must be satisfied (ignored, and may be ``None``, when
        *session* is given — the session is assumed to already hold them).
    groups:
        Each group is a sequence of literals; a group is "kept" only when all
        of its literals can be made true together with the hard clauses and
        the other kept groups.
    strategy:
        ``"exact"`` explores subsets from largest to smallest (feasible because
        the number of groups is small — at most the number of attributes);
        ``"greedy"`` adds groups one at a time.
    session:
        Optional solver session holding the hard clauses.  Every probe of the
        subset search is then an assumption-only call on the loaded clauses.
    assumptions:
        Base assumptions added to every call (incremental-encoding guards).
    """
    base_assumptions = [int(literal) for literal in assumptions]

    def _query(literals: Sequence[int]):
        if session is not None:
            return session.solve(base_assumptions + list(literals))
        return solve(hard, assumptions=base_assumptions + list(literals))

    def _group_consistent(literals: Sequence[int]) -> Tuple[bool, int]:
        """Check whether *literals* are jointly consistent with the hard clauses."""
        return _query(literals).satisfiable, 1

    sat_calls = 0
    base = _query([])
    sat_calls += 1
    if not base.satisfiable:
        return MaxSATResult((), hard_satisfiable=False, sat_calls=sat_calls)
    if not groups:
        return MaxSATResult((), hard_satisfiable=True, sat_calls=sat_calls)

    if strategy == "greedy":
        selected: List[int] = []
        accumulated: List[int] = []
        for index, group in enumerate(groups):
            candidate = accumulated + list(group)
            ok, calls = _group_consistent(candidate)
            sat_calls += calls
            if ok:
                selected.append(index)
                accumulated = candidate
        return MaxSATResult(tuple(selected), hard_satisfiable=True, sat_calls=sat_calls)

    if strategy != "exact":
        raise SolverError(f"unknown MaxSAT strategy {strategy!r}")

    indices = list(range(len(groups)))
    # Quick win: all groups together.
    all_literals = [lit for group in groups for lit in group]
    ok, calls = _group_consistent(all_literals)
    sat_calls += calls
    if ok:
        return MaxSATResult(tuple(indices), hard_satisfiable=True, sat_calls=sat_calls)

    for size in range(len(groups) - 1, 0, -1):
        for subset in itertools.combinations(indices, size):
            literals = [lit for index in subset for lit in groups[index]]
            ok, calls = _group_consistent(literals)
            sat_calls += calls
            if ok:
                return MaxSATResult(tuple(subset), hard_satisfiable=True, sat_calls=sat_calls)
    return MaxSATResult((), hard_satisfiable=True, sat_calls=sat_calls)
