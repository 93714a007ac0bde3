"""Completions of temporal instances and their semantics (paper Section II).

A *completion* of a temporal instance totally orders, for every attribute, the
values appearing in the entity instance; the most current value is the last
one.  Because tuples sharing the same value are interchangeable in a currency
order (``t1 ⪯_A t2`` whenever ``t1[A] = t2[A]``), a completion is represented
here directly as a linear order over the *distinct* attribute values — this is
exactly the granularity at which the paper's SAT encoding reasons (the
variables ``x^A_{a1,a2}`` order values, not tuples) and it is equivalent to the
tuple-level definition.

The module provides:

* :class:`Completion` — a concrete completion with its current tuple
  ``LST(I^c_t)`` and satisfaction checks for currency constraints and constant
  CFDs;
* :func:`enumerate_completions` — exhaustive enumeration of all completions of
  a temporal instance (used by tests and by the brute-force reference
  implementations of validity / implication / true values on small inputs).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.core.constraints import (
    ConstantComparisonPredicate,
    CurrencyConstraint,
    OrderPredicate,
    TupleComparisonPredicate,
)
from repro.core.cfd import ConstantCFD
from repro.core.errors import SchemaError
from repro.core.instance import TemporalInstance
from repro.core.tuples import EntityTuple
from repro.core.values import Value, values_equal

__all__ = ["Completion", "enumerate_completions"]


class Completion:
    """A total currency order per attribute over the distinct attribute values.

    Parameters
    ----------
    temporal_instance:
        The temporal instance being completed.
    value_orders:
        Mapping from attribute name to a sequence of the attribute's distinct
        values, least current first, most current last.  Every active-domain
        value must appear exactly once.
    """

    def __init__(
        self,
        temporal_instance: TemporalInstance,
        value_orders: Mapping[str, Sequence[Value]],
    ) -> None:
        self._temporal = temporal_instance
        schema = temporal_instance.schema
        orders: Dict[str, Tuple[Value, ...]] = {}
        for attribute in schema.attribute_names:
            if attribute not in value_orders:
                raise SchemaError(f"completion misses attribute {attribute!r}")
            ordering = tuple(value_orders[attribute])
            domain = temporal_instance.instance.active_domain(attribute)
            if len(ordering) != len(domain) or not all(
                any(values_equal(value, existing) for existing in ordering) for value in domain
            ):
                raise SchemaError(
                    f"completion for attribute {attribute!r} must order exactly the active domain"
                )
            orders[attribute] = ordering
        self._orders = orders

    # -- basic access ------------------------------------------------------

    @property
    def temporal_instance(self) -> TemporalInstance:
        """The temporal instance this completion extends."""
        return self._temporal

    def value_order(self, attribute: str) -> Tuple[Value, ...]:
        """The total value order for *attribute*, least current first."""
        return self._orders[attribute]

    def value_precedes(self, attribute: str, older: Value, newer: Value) -> bool:
        """Return ``True`` when *older* ≺ *newer* in the value order of *attribute*."""
        if values_equal(older, newer):
            return False
        ordering = self._orders[attribute]
        older_index = self._index_of(ordering, older)
        newer_index = self._index_of(ordering, newer)
        return older_index < newer_index

    @staticmethod
    def _index_of(ordering: Tuple[Value, ...], value: Value) -> int:
        for index, existing in enumerate(ordering):
            if values_equal(existing, value):
                return index
        raise SchemaError(f"value {value!r} does not occur in the completion order")

    def tuple_precedes(self, attribute: str, older: EntityTuple, newer: EntityTuple) -> bool:
        """Return ``True`` when ``older ≺_A newer`` under this completion
        (tuples with equal values are never strictly ordered)."""
        return self.value_precedes(attribute, older[attribute], newer[attribute])

    # -- current tuple -----------------------------------------------------

    def current_value(self, attribute: str) -> Value:
        """The most current value of *attribute* (last in the total order)."""
        return self._orders[attribute][-1]

    def current_tuple(self) -> Dict[str, Value]:
        """``LST(I^c_t)``: the tuple assembled from the most current value of each attribute."""
        return {attribute: self.current_value(attribute) for attribute in self._orders}

    # -- validity ----------------------------------------------------------

    def extends_partial_orders(self) -> bool:
        """Return ``True`` when this completion respects the given partial currency orders."""
        instance = self._temporal.instance
        for attribute, order in self._temporal.orders.items():
            for older_tid, newer_tid in order.pairs():
                older_value = instance[older_tid][attribute]
                newer_value = instance[newer_tid][attribute]
                if values_equal(older_value, newer_value):
                    continue
                if not self.value_precedes(attribute, older_value, newer_value):
                    return False
        return True

    def satisfies_currency_constraint(self, constraint: CurrencyConstraint) -> bool:
        """Satisfaction of one currency constraint over all tuple pairs (paper §II-A)."""
        tuples = self._temporal.instance.tuples
        for tuple1, tuple2 in itertools.permutations(tuples, 2):
            if self._body_holds(constraint, tuple1, tuple2):
                conclusion = constraint.conclusion_attribute
                if values_equal(tuple2[conclusion], None):
                    # A missing value cannot become "more current" than a
                    # present one (NULL is pinned lowest); such instances are
                    # vacuous — mirrored by the SAT encoding.
                    continue
                if values_equal(tuple1[conclusion], tuple2[conclusion]):
                    # Tuples sharing the conclusion value are interchangeable
                    # in the currency order (t1 ⪯_A t2 holds by definition),
                    # so the conclusion imposes nothing on this pair.  This is
                    # also how the paper's SAT encoding behaves: a literal
                    # a ≺^v a is never generated.  Without this reading the
                    # paper's own running example (E1 with ϕ5 on two "n/a"
                    # jobs) would be invalid.
                    continue
                if not self.tuple_precedes(conclusion, tuple1, tuple2):
                    return False
        return True

    def _body_holds(self, constraint: CurrencyConstraint, tuple1: EntityTuple, tuple2: EntityTuple) -> bool:
        # Cross-attribute constraints do not fire on pairs whose body touches a
        # missing value (mirrors the SAT encoding, see
        # repro.encoding.compiled._CompiledCurrencyConstraint).
        body_attributes = {
            attribute
            for predicate in constraint.body
            for attribute in predicate.referenced_attributes()
        }
        if body_attributes - {constraint.conclusion_attribute}:
            for attribute in body_attributes:
                if values_equal(tuple1[attribute], None) or values_equal(tuple2[attribute], None):
                    return False
        for predicate in constraint.body:
            if isinstance(predicate, OrderPredicate):
                if not self.tuple_precedes(predicate.attribute, tuple1, tuple2):
                    return False
            elif isinstance(predicate, TupleComparisonPredicate):
                if not predicate.evaluate(tuple1, tuple2):
                    return False
            elif isinstance(predicate, ConstantComparisonPredicate):
                if not predicate.evaluate(tuple1, tuple2):
                    return False
            else:  # pragma: no cover - defensive
                raise SchemaError(f"unknown predicate {predicate!r}")
        return True

    def satisfies_cfd(self, cfd: ConstantCFD) -> bool:
        """Satisfaction of one constant CFD on the current tuple (paper §II-B)."""
        return cfd.satisfied_by(self.current_tuple())

    def is_valid_for(
        self,
        currency_constraints: Sequence[CurrencyConstraint],
        cfds: Sequence[ConstantCFD],
    ) -> bool:
        """Return ``True`` when the completion satisfies the partial orders, Σ and Γ."""
        if not self.extends_partial_orders():
            return False
        if not all(self.satisfies_currency_constraint(constraint) for constraint in currency_constraints):
            return False
        return all(self.satisfies_cfd(cfd) for cfd in cfds)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Completion(current={self.current_tuple()!r})"


def enumerate_completions(temporal_instance: TemporalInstance) -> Iterator[Completion]:
    """Enumerate every completion of *temporal_instance*.

    The number of completions is the product over attributes of
    ``|adom(A)|!`` — use only on small instances (tests, reference
    implementations).  Completions inconsistent with the given partial
    currency orders are skipped.
    """
    instance = temporal_instance.instance
    schema = temporal_instance.schema
    per_attribute_orders: List[List[Tuple[Value, ...]]] = []
    for attribute in schema.attribute_names:
        domain = instance.active_domain(attribute)
        permutations = [tuple(p) for p in itertools.permutations(domain)]
        per_attribute_orders.append(permutations)
    for combination in itertools.product(*per_attribute_orders):
        value_orders = dict(zip(schema.attribute_names, combination))
        completion = Completion(temporal_instance, value_orders)
        if completion.extends_partial_orders():
            yield completion
