"""Validity checking — algorithm ``IsValid`` (paper Section V-A).

A specification is valid when it admits at least one valid completion; by
paper Lemma 5 this holds iff its CNF encoding Φ(S_e) is satisfiable, so the
algorithm is one SAT call on the solver session of an
:class:`~repro.encoding.incremental.IncrementalEncoder`, which already holds
Φ(S_e), under the encoder's guard assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.specification import Specification
from repro.encoding.cnf_encoder import SpecificationEncoding
from repro.encoding.incremental import IncrementalEncoder
from repro.encoding.instance_constraints import InstantiationOptions

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


def check_validity(encoder: IncrementalEncoder) -> ValidityReport:
    """Run ``IsValid`` on *encoder*'s specification and return a full report.

    The check is a single ``solve`` on ``encoder.session`` under
    ``encoder.assumptions``.  The session carries its own budget: an
    exhausted one surfaces as :class:`~repro.core.errors.BudgetExceededError`,
    so a falsy report keeps meaning "the specification is invalid", never
    "ran out of fuel".
    """
    result = encoder.session.solve(encoder.assumptions)
    return ValidityReport(
        valid=result.satisfiable,
        encoding=encoder.encoding,
        conflicts=result.conflicts,
        decisions=result.decisions,
    )


def is_valid(spec: Specification, options: InstantiationOptions | None = None) -> bool:
    """Return ``True`` when *spec* is valid (encodes it, then :func:`check_validity`)."""
    return check_validity(IncrementalEncoder(spec, options)).valid
