"""Conditional functional dependencies (paper Section II-B).

Conflict resolution only needs *constant* CFDs ``t_p[X] → t_p[B]`` — a pattern
of constants over a set ``X`` of left-hand-side attributes implying a constant
for a single right-hand-side attribute.  They are evaluated on the *current
tuple* of a completion: if the current tuple matches the LHS pattern, its RHS
attribute must carry the RHS constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Tuple

from repro.core.errors import ConstraintSyntaxError, SchemaError
from repro.core.schema import RelationSchema
from repro.core.tuples import EntityTuple
from repro.core.values import Value, normalize, values_equal

__all__ = ["ConstantCFD"]


@dataclass(frozen=True)
class ConstantCFD:
    """A constant CFD ``t_p[X] → t_p[B]``.

    Parameters
    ----------
    lhs:
        Mapping from each LHS attribute in ``X`` to its pattern constant.
    rhs_attribute:
        The RHS attribute ``B``.
    rhs_value:
        The RHS pattern constant ``t_p[B]``.
    name:
        Optional label for reports.
    """

    lhs: Tuple[Tuple[str, Value], ...]
    rhs_attribute: str
    rhs_value: Value
    name: str = ""

    def __init__(
        self,
        lhs: Mapping[str, Value],
        rhs_attribute: str,
        rhs_value: Value,
        name: str = "",
    ) -> None:
        if not lhs:
            raise ConstraintSyntaxError("a constant CFD needs at least one LHS attribute")
        if rhs_attribute in lhs:
            raise ConstraintSyntaxError(
                f"RHS attribute {rhs_attribute!r} may not also appear on the LHS of a constant CFD"
            )
        normalized = tuple(sorted((attribute, normalize(value)) for attribute, value in lhs.items()))
        object.__setattr__(self, "lhs", normalized)
        object.__setattr__(self, "rhs_attribute", rhs_attribute)
        object.__setattr__(self, "rhs_value", normalize(rhs_value))
        object.__setattr__(self, "name", name)

    # -- accessors ---------------------------------------------------------

    @property
    def lhs_attributes(self) -> Tuple[str, ...]:
        """The LHS attribute set ``X`` (sorted)."""
        return tuple(attribute for attribute, _ in self.lhs)

    @property
    def lhs_pattern(self) -> Dict[str, Value]:
        """The LHS pattern ``t_p[X]`` as a dictionary."""
        return {attribute: value for attribute, value in self.lhs}

    def referenced_attributes(self) -> FrozenSet[str]:
        """All attributes mentioned by the CFD."""
        return frozenset(self.lhs_attributes) | {self.rhs_attribute}

    def validate(self, schema: RelationSchema) -> None:
        """Raise :class:`SchemaError` when the CFD mentions unknown attributes."""
        try:
            schema.require(self.referenced_attributes())
        except SchemaError as exc:
            raise SchemaError(f"constant CFD {self.name or str(self)}: {exc}") from exc

    # -- semantics ---------------------------------------------------------

    def lhs_matches(self, current: Mapping[str, Value] | EntityTuple) -> bool:
        """Return ``True`` when *current* matches the LHS pattern ``t_p[X]``."""
        return all(values_equal(current[attribute], value) for attribute, value in self.lhs)

    def satisfied_by(self, current: Mapping[str, Value] | EntityTuple) -> bool:
        """Satisfaction on a current tuple: LHS matches ⇒ RHS value matches."""
        if not self.lhs_matches(current):
            return True
        return values_equal(current[self.rhs_attribute], self.rhs_value)

    def __str__(self) -> str:  # pragma: no cover - presentation only
        lhs = " ∧ ".join(f"{attribute}={value!r}" for attribute, value in self.lhs)
        label = f"{self.name}: " if self.name else ""
        return f"{label}({lhs} → {self.rhs_attribute}={self.rhs_value!r})"
