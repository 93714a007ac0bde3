"""True-value extraction with one reachability search per value pair, the reference.

:func:`reference_true_value` asks :meth:`PartialOrder.precedes` (a
breadth-first search) for every pair of a candidate and an active value, and
rebuilds the value domain from Γ for every attribute.  The tests check that
:func:`repro.resolution.true_values.extract_true_values` and
:func:`~repro.resolution.true_values.true_value_of_attribute` give the same
answer.
"""

from typing import Dict, Optional

from repro.core.specification import Specification, TrueValueAssignment
from repro.core.values import Value
from repro.encoding.variables import canonical_value
from repro.resolution.deduce import DeducedOrders


def reference_true_value(spec: Specification, deduced: DeducedOrders, attribute: str) -> Optional[Value]:
    """The true value of *attribute* under *deduced*, or ``None``."""
    active = spec.instance.active_domain(attribute)
    active_keys = {canonical_value(value): value for value in active}
    candidates = {canonical_value(value): value for value in spec.value_domain(attribute)}
    order = deduced.order_for(attribute)

    qualifiers: Dict[object, Value] = {}
    for candidate_key, candidate in candidates.items():
        if all(
            other_key == candidate_key or order.precedes(other_key, candidate_key)
            for other_key in active_keys
        ):
            qualifiers[candidate_key] = candidate
    if not qualifiers:
        return None
    undominated = {
        key: value
        for key, value in qualifiers.items()
        if not any(other != key and order.precedes(key, other) for other in qualifiers)
    }
    if len(undominated) == 1:
        return next(iter(undominated.values()))
    return None


def reference_true_values(spec: Specification, deduced: DeducedOrders) -> TrueValueAssignment:
    """The true values of every attribute determined by *deduced*."""
    values = {}
    for attribute in spec.schema.attribute_names:
        value = reference_true_value(spec, deduced, attribute)
        if value is not None:
            values[attribute] = value
    return TrueValueAssignment(values)
