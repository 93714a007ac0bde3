"""Extraction of true attribute values from deduced orders (paper Section V-B).

A value ``a`` is the *true value* of attribute ``A`` when every other value of
the active domain is deduced to be less current than ``a``.  Attributes whose
active domain is a singleton are trivially resolved (their only value must be
the current one in every completion).

The deduced order comes closed (:class:`~repro.resolution.deduce.DeducedOrders`
keeps, per value, the set of values above it), so the check is a count: walk
the sets above the active values once, count for each value how many active
values lie below it, and a candidate qualifies when that count covers every
active value other than itself.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set

from repro.core.specification import Specification, TrueValueAssignment
from repro.core.values import Value
from repro.resolution.deduce import DeducedOrders

__all__ = ["true_value_of_attribute", "extract_true_values"]

_NOTHING: frozenset = frozenset()
_EMPTY: Mapping[Hashable, Set[Hashable]] = {}


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
        spec.instance.active_domain(attribute),
        spec.value_domain(attribute),
        deduced.above.get(attribute, _EMPTY),
    )


def _true_value(
    active: Sequence[Value], candidates: Iterable[Value], above: Mapping[Hashable, Set[Hashable]]
) -> Optional[Value]:
    """The one undominated qualifier among *active*, then *candidates*, in the closed order *above*.

    Instance values and Γ's constants are normalised, so each value is its
    own canonical key, and the active values are distinct.  A value is
    never above itself, so an active value qualifies when the other
    ``len(active) - 1`` active values lie below it, and any other candidate
    when all of them do.
    """
    below: Dict[Hashable, int] = {}
    for value in active:
        for higher in above.get(value, ()):
            below[higher] = below.get(higher, 0) + 1
    needed = len(active)
    qualifiers: List[Value] = [value for value in active if below.get(value, 0) == needed - 1]
    if needed in below.values():
        qualifiers += dict.fromkeys(value for value in candidates if below.get(value, 0) == needed)
    undominated = [value for value in qualifiers if above.get(value, _NOTHING).isdisjoint(qualifiers)]
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
        value = _true_value(
            spec.instance.active_domain(attribute),
            constants.get(attribute, ()),
            deduced.above.get(attribute, _EMPTY),
        )
        if value is not None:
            values[attribute] = value
    return TrueValueAssignment(values)
