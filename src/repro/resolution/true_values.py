"""Extraction of true attribute values from deduced orders (paper Section V-B).

A value ``a`` is the *true value* of attribute ``A`` when every other value of
the active domain is deduced to be less current than ``a``.  Attributes whose
active domain is a singleton are trivially resolved (their only value must be
the current one in every completion).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set

from repro.core.partial_order import PartialOrder
from repro.core.specification import Specification, TrueValueAssignment
from repro.core.values import Value
from repro.encoding.variables import canonical_value
from repro.resolution.deduce import DeducedOrders

__all__ = ["true_value_of_attribute", "extract_true_values"]


def true_value_of_attribute(
    spec: Specification, deduced: DeducedOrders, attribute: str
) -> Optional[Value]:
    """Return the true value of *attribute* if it is determined by *deduced*, else ``None``.

    Candidates are drawn from the value domain (active domain plus CFD
    constants, since a firing constant CFD repairs the attribute to its
    pattern constant).  A candidate qualifies when every *active-domain*
    value other than itself is deduced to be less current; among qualifying
    candidates the ones dominated by another qualifier are discarded, and the
    true value exists only when exactly one remains.
    """
    return _true_value(
        spec.instance.active_domain(attribute), spec.value_domain(attribute), deduced.order_for(attribute)
    )


def _true_value(active: Iterable[Value], domain: Iterable[Value], order: PartialOrder) -> Optional[Value]:
    """The one undominated qualifier of *domain* over *active* in *order* (see above).

    Each value's successors are walked once: what lies above it is a set,
    and every "is ``a`` below ``b``" question a set lookup.
    """
    active_keys = dict.fromkeys(canonical_value(value) for value in active)
    candidates: Dict[Hashable, Value] = {}
    for value in domain:
        candidates.setdefault(canonical_value(value), value)
    above: Dict[Hashable, Set[Hashable]] = {}

    def above_of(key: Hashable) -> Set[Hashable]:
        found = above.get(key)
        if found is None:
            found = above[key] = order.above(key)
        return found

    qualifiers: Dict[Hashable, Value] = {}
    for candidate_key, candidate in candidates.items():
        if all(other == candidate_key or candidate_key in above_of(other) for other in active_keys):
            qualifiers[candidate_key] = candidate
    undominated: List[Value] = [
        value
        for key, value in qualifiers.items()
        if not any(other != key and other in above_of(key) for other in qualifiers)
    ]
    return undominated[0] if len(undominated) == 1 else None


def extract_true_values(spec: Specification, deduced: DeducedOrders) -> TrueValueAssignment:
    """Return the true values of every attribute determined by *deduced*.

    Γ's constants are collected per attribute in one pass; each attribute's
    candidates are its active domain, then those constants, in the order of
    :meth:`~repro.core.specification.Specification.value_domain`.
    """
    constants: Dict[str, List[Value]] = {}
    for cfd in spec.cfds:
        constants.setdefault(cfd.rhs_attribute, []).append(cfd.rhs_value)
        for attribute, value in cfd.lhs:
            constants.setdefault(attribute, []).append(value)
    values: Dict[str, Value] = {}
    for attribute in spec.schema.attribute_names:
        active = spec.instance.active_domain(attribute)
        value = _true_value(
            active, [*active, *constants.get(attribute, ())], deduced.order_for(attribute)
        )
        if value is not None:
            values[attribute] = value
    return TrueValueAssignment(values)
