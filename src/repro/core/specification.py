"""Specifications and true values (paper Sections II-C and IV).

A :class:`Specification` bundles the three ingredients of the conflict
resolution model:

* a temporal instance ``I_t`` (entity tuples + partial currency orders),
* a set Σ of currency constraints, and
* a set Γ of constant CFDs.

It also provides *reference* (brute-force) implementations of the paper's
fundamental problems — validity, implication, true-value existence — by
enumerating completions.  These are exponential and only meant for small
instances; the practical algorithms live in :mod:`repro.resolution` and are
cross-checked against these references in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.cfd import ConstantCFD
from repro.core.completion import Completion, enumerate_completions
from repro.core.constraints import CurrencyConstraint
from repro.core.errors import SchemaError
from repro.core.instance import EntityInstance, TemporalInstance, TemporalOrderDelta
from repro.core.schema import RelationSchema
from repro.core.values import Value, values_equal

__all__ = ["Specification", "TrueValueAssignment"]


@dataclass
class TrueValueAssignment:
    """Partial assignment of true values to attributes.

    ``values[A]`` is the true value deduced (or validated) for attribute ``A``;
    attributes that are absent have no known true value yet.
    """

    values: Dict[str, Value] = field(default_factory=dict)

    def known_attributes(self) -> Tuple[str, ...]:
        """Attributes whose true value is known."""
        return tuple(sorted(self.values))

    def is_total_for(self, schema: RelationSchema) -> bool:
        """Return ``True`` when a true value is known for every attribute of *schema*."""
        return all(attribute in self.values for attribute in schema.attribute_names)

    def merge(self, other: "TrueValueAssignment") -> "TrueValueAssignment":
        """Return the union of two assignments (the other wins on overlap)."""
        merged = dict(self.values)
        merged.update(other.values)
        return TrueValueAssignment(merged)

    def as_tuple_dict(self, schema: RelationSchema) -> Dict[str, Value]:
        """Return a full-width dictionary with ``None`` for unknown attributes."""
        return {attribute: self.values.get(attribute) for attribute in schema.attribute_names}

    def __contains__(self, attribute: object) -> bool:
        return attribute in self.values

    def __getitem__(self, attribute: str) -> Value:
        return self.values[attribute]

    def __len__(self) -> int:
        return len(self.values)


#: ``(schema, Σ, Γ)`` with Σ and Γ validated against the schema.
ValidatedConstraints = Tuple[RelationSchema, Tuple[CurrencyConstraint, ...], Tuple[ConstantCFD, ...]]


def validated_constraints(
    schema: RelationSchema,
    currency_constraints: Sequence[CurrencyConstraint],
    cfds: Sequence[ConstantCFD],
    previous: Optional[ValidatedConstraints] = None,
) -> ValidatedConstraints:
    """Validate Σ and Γ against *schema*, unless *previous* already holds exactly them.

    A holder that builds many specifications from one Σ ∪ Γ keeps the return
    value, passes it back as *previous* and builds each specification with
    :meth:`Specification._from_validated`.  The check is by equality, so a
    changed schema or constraint list is validated again and nothing needs
    invalidating; a constraint that fails raises on every call.
    """
    current = (schema, tuple(currency_constraints), tuple(cfds))
    if current != previous:
        for constraint in current[1]:
            constraint.validate(schema)
        for cfd in current[2]:
            cfd.validate(schema)
    return current


class Specification:
    """A specification ``S_e = (I_t, Σ, Γ)`` of one entity.

    Parameters
    ----------
    temporal_instance:
        The temporal instance ``I_t``.
    currency_constraints:
        The set Σ of currency constraints.
    cfds:
        The set Γ of constant CFDs.
    name:
        Optional entity label used in reports.
    """

    def __init__(
        self,
        temporal_instance: TemporalInstance,
        currency_constraints: Sequence[CurrencyConstraint] = (),
        cfds: Sequence[ConstantCFD] = (),
        name: str = "",
    ) -> None:
        self._temporal = temporal_instance
        _, self._sigma, self._gamma = validated_constraints(
            temporal_instance.schema, currency_constraints, cfds
        )
        self.name = name

    # -- construction helpers -----------------------------------------------

    @classmethod
    def _from_validated(
        cls,
        temporal_instance: TemporalInstance,
        currency_constraints: Tuple[CurrencyConstraint, ...],
        cfds: Tuple[ConstantCFD, ...],
        name: str = "",
    ) -> "Specification":
        """Build a specification whose constraints were already validated against its schema.

        Used wherever Σ and Γ were validated once for many specifications:
        the engine's constraint-shipping path (the parent process validated
        them when it built the original specification), :meth:`extend`, the
        CDC registry and the dataset generators.  Callers must pass tuples
        they will not mutate.
        """
        spec = cls.__new__(cls)
        spec._temporal = temporal_instance
        spec._sigma = currency_constraints
        spec._gamma = cfds
        spec.name = name
        return spec

    @classmethod
    def from_rows(
        cls,
        schema: RelationSchema,
        rows: Sequence[Mapping[str, Value]],
        currency_constraints: Sequence[CurrencyConstraint] = (),
        cfds: Sequence[ConstantCFD] = (),
        name: str = "",
    ) -> "Specification":
        """Build a specification from plain dictionaries with empty currency orders."""
        from repro.core.tuples import EntityTuple

        tuples = [EntityTuple(schema, row) for row in rows]
        instance = EntityInstance(schema, tuples)
        return cls(TemporalInstance(instance), currency_constraints, cfds, name=name)

    # -- accessors -----------------------------------------------------------

    @property
    def temporal_instance(self) -> TemporalInstance:
        """The temporal instance ``I_t``."""
        return self._temporal

    @property
    def instance(self) -> EntityInstance:
        """The entity instance ``I_e``."""
        return self._temporal.instance

    @property
    def schema(self) -> RelationSchema:
        """The relation schema."""
        return self._temporal.schema

    @property
    def currency_constraints(self) -> Tuple[CurrencyConstraint, ...]:
        """The set Σ of currency constraints."""
        return self._sigma

    @property
    def cfds(self) -> Tuple[ConstantCFD, ...]:
        """The set Γ of constant CFDs."""
        return self._gamma

    def with_constraints(
        self,
        currency_constraints: Optional[Sequence[CurrencyConstraint]] = None,
        cfds: Optional[Sequence[ConstantCFD]] = None,
    ) -> "Specification":
        """Return a copy of this specification with Σ and/or Γ replaced."""
        return Specification(
            self._temporal,
            self._sigma if currency_constraints is None else currency_constraints,
            self._gamma if cfds is None else cfds,
            name=self.name,
        )

    # -- the ⊕ operator -------------------------------------------------------

    def extend(self, delta: TemporalOrderDelta) -> "Specification":
        """Return ``S_e ⊕ O_t``: the specification enriched with *delta*.

        Σ, Γ and the schema are unchanged, so they are not validated again.
        """
        if delta.is_empty():
            return self
        return Specification._from_validated(
            self._temporal.extend(delta), self._sigma, self._gamma, name=self.name
        )

    # -- value domains ---------------------------------------------------------

    def value_domain(self, attribute: str) -> Tuple[Value, ...]:
        """Active domain of *attribute* plus the constants appearing for it in Γ.

        This is the domain the value-level order ``≺^v_A`` is defined on
        (paper §V-A).
        """
        self.schema.require([attribute])
        domain: List[Value] = list(self.instance.active_domain(attribute))
        # Constraint constants are normalised like tuple values, so set
        # membership is equivalent to the pairwise ``values_equal`` scan.
        present = set(domain)

        def ensure(value: Value) -> None:
            if value not in present:
                present.add(value)
                domain.append(value)

        for cfd in self._gamma:
            if cfd.rhs_attribute == attribute:
                ensure(cfd.rhs_value)
            for lhs_attribute, lhs_value in cfd.lhs:
                if lhs_attribute == attribute:
                    ensure(lhs_value)
        return tuple(domain)

    # -- brute-force reference semantics (small instances only) -----------------

    def valid_completions(self) -> Iterator[Completion]:
        """Enumerate the valid completions of this specification (exponential)."""
        for completion in enumerate_completions(self._temporal):
            if completion.is_valid_for(self._sigma, self._gamma):
                yield completion

    def is_valid_brute_force(self) -> bool:
        """Reference implementation of the satisfiability problem (paper Thm. 1)."""
        return next(self.valid_completions(), None) is not None

    def implies_order_brute_force(self, attribute: str, older: Value, newer: Value) -> bool:
        """Reference implementation of the implication problem for one value pair."""
        found_any = False
        for completion in self.valid_completions():
            found_any = True
            if not completion.value_precedes(attribute, older, newer):
                return False
        return found_any

    def true_value_brute_force(self) -> Optional[Dict[str, Value]]:
        """Reference implementation of the true value problem (paper Thm. 3).

        Returns the unique current tuple shared by all valid completions, or
        ``None`` when the specification is invalid or the current tuples
        disagree on some attribute.
        """
        result: Optional[Dict[str, Value]] = None
        for completion in self.valid_completions():
            current = completion.current_tuple()
            if result is None:
                result = current
                continue
            for attribute, value in current.items():
                if not values_equal(result[attribute], value):
                    return None
        return result

    def true_attributes_brute_force(self) -> TrueValueAssignment:
        """Attribute-wise true values shared by all valid completions (reference)."""
        agreed: Optional[Dict[str, Value]] = None
        disagreeing: set[str] = set()
        for completion in self.valid_completions():
            current = completion.current_tuple()
            if agreed is None:
                agreed = dict(current)
                continue
            for attribute, value in current.items():
                if attribute not in disagreeing and not values_equal(agreed[attribute], value):
                    disagreeing.add(attribute)
        if agreed is None:
            return TrueValueAssignment({})
        return TrueValueAssignment({a: v for a, v in agreed.items() if a not in disagreeing})

    # -- presentation -----------------------------------------------------------

    def summary(self) -> str:
        """One-line summary used in logs and reports."""
        return (
            f"Specification(name={self.name!r}, tuples={len(self.instance)}, "
            f"|Σ|={len(self._sigma)}, |Γ|={len(self._gamma)}, "
            f"order edges={self._temporal.size()})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return self.summary()
