"""Constraint-solving substrate: one CDCL SAT solver behind incremental
sessions with propagate-only calls, group MaxSAT and maximum clique.

These modules replace the external tools used in the paper's experimental
study (MiniSAT, WalkSAT-based MaxSAT, and the clique approximation of [16])
with self-contained, deterministic Python implementations.
"""

from repro.solvers.arena import ArenaSolver, SATResult
from repro.solvers.budget import SolverBudget
from repro.solvers.clique import build_graph, bron_kerbosch_cliques, greedy_clique, max_clique
from repro.solvers.maxsat import MaxSATResult, solve_group_maxsat
from repro.solvers.session import ArenaSession, SolverSession

__all__ = [
    "ArenaSession",
    "ArenaSolver",
    "MaxSATResult",
    "SATResult",
    "SolverBudget",
    "SolverSession",
    "build_graph",
    "bron_kerbosch_cliques",
    "greedy_clique",
    "max_clique",
    "solve_group_maxsat",
]
