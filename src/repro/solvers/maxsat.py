"""Partial (group) MaxSAT.

``GetSug`` (paper Section V-C) needs to find, inside a clique of derivation
rules, a maximum subset of rules that has no conflict with the specification:
the hard part is Φ(S_e), held by a solver session; each rule contributes a
*group* of soft unit literals ("this rule's value is the most current one"),
and we want to keep as many whole groups as possible.  The paper uses an
off-the-shelf MaxSAT solver (WalkSAT); this module provides the same
capability as assumption-only probes on that session:

* :func:`solve_group_maxsat` — exact, by a descending search over subsets of
  groups, largest first (cheap because the number of groups is at most
  |R|);
* a ``strategy="greedy"`` mode that mimics a local-search MaxSAT solver: it
  adds groups one by one in a deterministic order, keeping a group only if the
  formula stays satisfiable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.errors import SolverError
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
    session: SolverSession,
    groups: Sequence[Sequence[int]],
    strategy: str = "exact",
    assumptions: Sequence[int] = (),
) -> MaxSATResult:
    """Select a maximum number of literal groups consistent with *session*'s formula.

    Parameters
    ----------
    session:
        The solver session holding the hard clauses.  Every probe of the
        subset search is an assumption-only call on them.
    groups:
        Each group is a sequence of literals; a group is "kept" only when all
        of its literals can be made true together with the hard clauses and
        the other kept groups.
    strategy:
        ``"exact"`` explores subsets from largest to smallest (feasible because
        the number of groups is small — at most the number of attributes);
        ``"greedy"`` adds groups one at a time.
    assumptions:
        Base assumptions added to every call (incremental-encoding guards).
    """
    base_assumptions = [int(literal) for literal in assumptions]
    sat_calls = 0

    def consistent(literals: Sequence[int]) -> bool:
        """Whether *literals* are jointly consistent with the hard clauses."""
        nonlocal sat_calls
        sat_calls += 1
        return session.solve(base_assumptions + list(literals)).satisfiable

    if not consistent(()):
        return MaxSATResult((), hard_satisfiable=False, sat_calls=sat_calls)
    if not groups:
        return MaxSATResult((), hard_satisfiable=True, sat_calls=sat_calls)

    if strategy == "greedy":
        selected: List[int] = []
        accumulated: List[int] = []
        for index, group in enumerate(groups):
            candidate = accumulated + list(group)
            if consistent(candidate):
                selected.append(index)
                accumulated = candidate
        return MaxSATResult(tuple(selected), hard_satisfiable=True, sat_calls=sat_calls)

    if strategy != "exact":
        raise SolverError(f"unknown MaxSAT strategy {strategy!r}")

    indices = list(range(len(groups)))
    # Quick win: all groups together.
    if consistent([lit for group in groups for lit in group]):
        return MaxSATResult(tuple(indices), hard_satisfiable=True, sat_calls=sat_calls)

    for size in range(len(groups) - 1, 0, -1):
        for subset in itertools.combinations(indices, size):
            if consistent([lit for index in subset for lit in groups[index]]):
                return MaxSATResult(tuple(subset), hard_satisfiable=True, sat_calls=sat_calls)
    return MaxSATResult((), hard_satisfiable=True, sat_calls=sat_calls)
