"""Validity checking — algorithm ``IsValid`` (paper Section V-A).

A specification is valid when it admits at least one valid completion; by
paper Lemma 5 this holds iff its CNF encoding Φ(S_e) is satisfiable, so the
algorithm is: instantiate, convert to CNF, call the SAT solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.errors import BudgetExceededError
from repro.core.specification import Specification
from repro.encoding.cnf_encoder import SpecificationEncoding, encode_specification
from repro.encoding.instance_constraints import InstantiationOptions
from repro.solvers.arena import solve
from repro.solvers.budget import SolverBudget
from repro.solvers.session import SolverSession

__all__ = ["ValidityReport", "is_valid", "check_validity"]


@dataclass
class ValidityReport:
    """Outcome of a validity check.

    Attributes
    ----------
    valid:
        ``True`` when the specification has at least one valid completion.
    encoding:
        The encoding that was checked (reusable by the later pipeline stages).
    conflicts / decisions:
        SAT-solver statistics, reported for the scalability experiments.
    """

    valid: bool
    encoding: SpecificationEncoding
    conflicts: int = 0
    decisions: int = 0

    def __bool__(self) -> bool:
        return self.valid


def check_validity(
    spec: Specification,
    options: InstantiationOptions | None = None,
    encoding: Optional[SpecificationEncoding] = None,
    session: Optional[SolverSession] = None,
    assumptions: Sequence[int] = (),
    budget: Optional[SolverBudget] = None,
) -> ValidityReport:
    """Run ``IsValid`` on *spec* and return a full report.

    An already-built *encoding* can be supplied to avoid re-encoding the same
    specification (the framework reuses one encoding per interaction round).
    When a *session* already holds Φ(S_e) (the incremental path), the check is
    a single ``solve(assumptions)`` call on it, and *assumptions* carries the
    guard literals of the currently valid clauses.

    *budget* caps the cold (session-less) solve; a session carries its own
    budget.  Either way an exhausted budget surfaces as
    :class:`~repro.core.errors.BudgetExceededError` — a falsy report must
    keep meaning "the specification is invalid", never "ran out of fuel".
    """
    if encoding is None:
        encoding = encode_specification(spec, options)
    if session is not None:
        result = session.solve(assumptions)
    else:
        cnf = encoding.require_cnf("check_validity")
        result = solve(cnf, assumptions=list(assumptions), budget=budget)
        if result.budget_exceeded:
            raise BudgetExceededError(
                f"solver budget {budget} exhausted after {result.conflicts} conflicts "
                f"/ {result.propagations} propagations"
            )
    return ValidityReport(
        valid=result.satisfiable,
        encoding=encoding,
        conflicts=result.conflicts,
        decisions=result.decisions,
    )


def is_valid(spec: Specification, options: InstantiationOptions | None = None) -> bool:
    """Return ``True`` when *spec* is valid (convenience wrapper around :func:`check_validity`)."""
    return check_validity(spec, options).valid
