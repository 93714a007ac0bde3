"""Constraint-solving substrate: SAT (one CDCL solver, with DPLL as the
reference) with propagate-only session calls, group MaxSAT and maximum clique.

These modules replace the external tools used in the paper's experimental
study (MiniSAT, WalkSAT-based MaxSAT, and the clique approximation of [16])
with self-contained, deterministic Python implementations.
"""

from repro.solvers.arena import ArenaSolver, SATResult, solve
from repro.solvers.budget import SolverBudget
from repro.solvers.clique import build_graph, bron_kerbosch_cliques, greedy_clique, max_clique
from repro.solvers.cnf import CNF, Clause, VariablePool
from repro.solvers.dpll import dpll_solve
from repro.solvers.maxsat import MaxSATResult, solve_group_maxsat
from repro.solvers.session import (
    ArenaSession,
    DPLLSession,
    SolverSession,
    available_backends,
    create_session,
    register_backend,
)

__all__ = [
    "ArenaSession",
    "ArenaSolver",
    "CNF",
    "Clause",
    "DPLLSession",
    "MaxSATResult",
    "SATResult",
    "SolverBudget",
    "SolverSession",
    "VariablePool",
    "available_backends",
    "build_graph",
    "bron_kerbosch_cliques",
    "create_session",
    "dpll_solve",
    "greedy_clique",
    "max_clique",
    "register_backend",
    "solve",
    "solve_group_maxsat",
]
