"""Resource budgets for SAT solve calls.

A :class:`SolverBudget` caps how much work a single ``solve`` call may
perform before the solver returns a clean ``BUDGET_EXCEEDED`` verdict
(:attr:`~repro.solvers.arena.SATResult.budget_exceeded`).  Exceeding a
budget is *not* an error inside the solver: the trail is backtracked to
decision level zero, activities are kept, and the solver (or the
:class:`~repro.solvers.session.SolverSession` wrapping it, which also
forgets what the call learned) stays fully reusable.

Budgets are deliberately tiny, frozen, and picklable so they can ride
inside :class:`~repro.resolution.framework.ResolverOptions` across the
process-pool boundary and into cache-key digests unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import ReproError

__all__ = ["SolverBudget"]


@dataclass(frozen=True)
class SolverBudget:
    """Caps on a single solve call.

    ``None`` disables the corresponding cap.  ``wall_seconds`` is also
    reused by :class:`~repro.resolution.framework.ConflictResolver` as a
    per-entity wall-clock deadline checked between rounds, so a single
    runaway entity cannot stall a million-entity run.
    """

    max_conflicts: Optional[int] = None
    max_propagations: Optional[int] = None
    wall_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_conflicts is not None and self.max_conflicts < 1:
            raise ReproError("SolverBudget.max_conflicts must be at least 1")
        if self.max_propagations is not None and self.max_propagations < 1:
            raise ReproError("SolverBudget.max_propagations must be at least 1")
        if self.wall_seconds is not None and self.wall_seconds <= 0:
            raise ReproError("SolverBudget.wall_seconds must be positive")

    @property
    def unbounded(self) -> bool:
        """True when no cap is set (the budget is a no-op)."""

        return (
            self.max_conflicts is None
            and self.max_propagations is None
            and self.wall_seconds is None
        )
