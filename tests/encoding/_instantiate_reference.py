"""The object-path ``Instantiation``, the reference for the compiled program.

Here Ω(S_e) is built the way the paper describes it, with no one-time
analysis: each currency constraint is re-dispatched on its predicate classes
for every pair of dict rows, every atom is an :class:`OrderLiteral`, the CFD
instances are re-derived from the active domains, and one set of
instance-constraint keys drops the duplicates.  :class:`ReferenceDeltaEncoder`
runs the incremental encoder's deltas on the same object path.

The tests check that :func:`repro.encoding.instantiate_compiled` (every full
and cold encode) and the :class:`IncrementalEncoder` deltas give exactly the
same Ω — constraint for constraint, in the same order, with the same source
kinds and names, and the same used values.  The reference builds its Ω from
objects and hands the encoder the same records and keys the compiled
program does, so both feed one clause plumbing.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.constraints import (
    ConstantComparisonPredicate,
    CurrencyConstraint,
    OrderPredicate,
    TupleComparisonPredicate,
)
from repro.core.errors import CyclicOrderError, EncodingError
from repro.core.instance import TemporalOrderDelta
from repro.core.partial_order import PartialOrder
from repro.core.specification import Specification
from repro.core.values import Value, apply_operator, values_equal
from repro.encoding.incremental import IncrementalEncoder
from repro.encoding.instance_constraints import (
    InstanceConstraint,
    InstanceConstraintSet,
    InstantiationOptions,
    Record,
    _record_key,
)
from repro.encoding.variables import OrderLiteral, canonical_value


def _constraint_key(constraint: InstanceConstraint) -> Tuple:
    """Deduplication key: the body atoms as a set and the head atom."""
    head = constraint.head
    return (
        frozenset((lit.attribute, lit.older, lit.newer) for lit in constraint.body),
        None if head is None else (head.attribute, head.older, head.newer),
    )


def record_of(constraint: InstanceConstraint) -> Tuple[Record, Hashable]:
    """*constraint* as an Ω record, with the record key the encoder keys it by."""
    body = tuple((lit.attribute, lit.older, lit.newer) for lit in constraint.body)
    head = constraint.head
    head = None if head is None else (head.attribute, head.older, head.newer)
    return (constraint.source_kind, constraint.source_name, body, head), _record_key(body, head)


class _Deduplicator:
    """Tracks emitted constraints so duplicates are filtered out."""

    def __init__(self) -> None:
        self._seen: Set[Tuple] = set()

    def admit(self, constraint: InstanceConstraint) -> bool:
        key = _constraint_key(constraint)
        if key in self._seen:
            return False
        self._seen.add(key)
        return True


def reference_instantiate(
    spec: Specification, options: InstantiationOptions | None = None
) -> InstanceConstraintSet:
    """Build Ω(S_e) for *spec* on the object path."""
    options = options or InstantiationOptions()
    if options.mode not in ("projected", "naive"):
        raise EncodingError(f"unknown instantiation mode {options.mode!r}")
    result = InstanceConstraintSet()
    constraints: List[InstanceConstraint] = []
    dedup = _Deduplicator()

    def emit(constraint: InstanceConstraint) -> None:
        if dedup.admit(constraint):
            constraints.append(constraint)

    _instantiate_currency_orders(spec, emit)
    _instantiate_currency_constraints(spec, options, emit)
    _instantiate_cfds(spec, emit)
    _close_ground_facts(result, constraints, emit)
    result.records = [record_of(constraint)[0] for constraint in constraints]

    # Values per attribute that occur in at least one emitted literal.
    used: Dict[str, List[Value]] = {}

    def note(attribute: str, value: Value) -> None:
        bucket = used.setdefault(attribute, [])
        key = canonical_value(value)
        if not any(canonical_value(existing) == key for existing in bucket):
            bucket.append(value)

    for constraint in constraints:
        for literal in constraint.body:
            note(literal.attribute, literal.older)
            note(literal.attribute, literal.newer)
        if constraint.head is not None:
            note(constraint.head.attribute, constraint.head.older)
            note(constraint.head.attribute, constraint.head.newer)
    result.used_values = used
    return result


# -- ground-fact closure -----------------------------------------------------


def _close_ground_facts(result: InstanceConstraintSet, constraints: List[InstanceConstraint], emit) -> None:
    """Transitively close the ground facts of *constraints*, emitting the closure facts.

    A cycle among the facts makes the whole specification invalid, recorded
    as an empty implication ``true → false``.
    """
    facts_by_attribute: Dict[str, List[InstanceConstraint]] = {}
    for constraint in constraints:
        if constraint.is_fact():
            facts_by_attribute.setdefault(constraint.head.attribute, []).append(constraint)
    for attribute, facts in facts_by_attribute.items():
        order = PartialOrder()
        direct: Set[Tuple[Hashable, Hashable]] = set()
        for fact in facts:
            older = canonical_value(fact.head.older)
            newer = canonical_value(fact.head.newer)
            direct.add((older, newer))
            try:
                order.add(older, newer)
            except CyclicOrderError:
                result.inherently_invalid = True
                result.invalid_reason = (
                    f"the ground currency facts on attribute {attribute!r} form a cycle"
                )
                emit(InstanceConstraint(body=(), head=None, source_kind="conflict", source_name=attribute))
                return
        for older, newer in order.transitive_closure_pairs():
            if (older, newer) in direct:
                continue
            emit(
                InstanceConstraint(
                    body=(),
                    head=OrderLiteral(attribute, older, newer),
                    source_kind="closure",
                    source_name=attribute,
                )
            )


# -- currency orders ---------------------------------------------------------


def _instantiate_currency_orders(spec: Specification, emit) -> None:
    instance = spec.instance
    for attribute, order in spec.temporal_instance.orders.items():
        for older_tid, newer_tids in order.successor_map().items():
            older_value = instance[older_tid][attribute]
            for newer_tid in newer_tids:
                newer_value = instance[newer_tid][attribute]
                if older_value == newer_value:
                    continue
                emit(
                    InstanceConstraint(
                        body=(),
                        head=OrderLiteral(attribute, older_value, newer_value),
                        source_kind="order",
                        source_name=f"{older_tid}≺{newer_tid}",
                    )
                )


# -- currency constraints -----------------------------------------------------


def _projections(spec: Specification, attributes: Sequence[str]) -> List[Dict[str, Value]]:
    """Distinct projections of the entity tuples onto *attributes*."""
    seen: Set[Tuple[Hashable, ...]] = set()
    projections: List[Dict[str, Value]] = []
    for item in spec.instance:
        row = {attribute: item[attribute] for attribute in attributes}
        key = tuple(canonical_value(row[attribute]) for attribute in attributes)
        if key in seen:
            continue
        seen.add(key)
        projections.append(row)
    return projections


def _instantiate_one_pair(
    constraint: CurrencyConstraint,
    row1: Dict[str, Value],
    row2: Dict[str, Value],
) -> Optional[InstanceConstraint]:
    """Instantiate *constraint* on one ordered pair of (projected) rows.

    Returns ``None`` when the instantiated constraint is vacuously true for
    the pair (a comparison predicate is false, a body order predicate relates
    equal values, or the conclusion relates equal values).

    A pair whose body touches a missing value is treated as vacuous when the
    constraint relates *different* attributes, and so is a conclusion that
    would rank a missing value above a present one.
    """
    body_attributes = {
        attribute
        for predicate in constraint.body
        for attribute in predicate.referenced_attributes()
    }
    cross_attribute = bool(body_attributes - {constraint.conclusion_attribute})
    if cross_attribute:
        for attribute in body_attributes:
            if values_equal(row1[attribute], None) or values_equal(row2[attribute], None):
                return None
    body: List[OrderLiteral] = []
    for predicate in constraint.body:
        if isinstance(predicate, OrderPredicate):
            older = row1[predicate.attribute]
            newer = row2[predicate.attribute]
            if values_equal(older, newer):
                return None
            body.append(OrderLiteral(predicate.attribute, older, newer))
        elif isinstance(predicate, TupleComparisonPredicate):
            if not apply_operator(row1[predicate.attribute], predicate.op, row2[predicate.attribute]):
                return None
        elif isinstance(predicate, ConstantComparisonPredicate):
            source = row1 if predicate.tuple_index == 1 else row2
            if not apply_operator(source[predicate.attribute], predicate.op, predicate.constant):
                return None
        else:  # pragma: no cover - defensive
            raise EncodingError(f"unsupported predicate {predicate!r}")
    conclusion = constraint.conclusion_attribute
    older = row1[conclusion]
    newer = row2[conclusion]
    if values_equal(older, newer):
        return None
    if values_equal(newer, None):
        return None
    return InstanceConstraint(
        body=tuple(body),
        head=OrderLiteral(conclusion, older, newer),
        source_kind="currency",
        source_name=constraint.name or str(constraint),
    )


def _instantiate_currency_constraints(
    spec: Specification, options: InstantiationOptions, emit
) -> None:
    projection_cache: Dict[Tuple[str, ...], List[Dict[str, Value]]] = {}
    naive_cache: Dict[Tuple[str, ...], List[Dict[str, Value]]] = {}
    for constraint in spec.currency_constraints:
        attributes = tuple(sorted(constraint.referenced_attributes()))
        if options.mode == "projected":
            if attributes not in projection_cache:
                projection_cache[attributes] = _projections(spec, attributes)
            rows: List[Dict[str, Value]] = projection_cache[attributes]
        else:
            if attributes not in naive_cache:
                naive_cache[attributes] = [
                    {attribute: item[attribute] for attribute in attributes}
                    for item in spec.instance
                ]
            rows = naive_cache[attributes]
        for row1, row2 in itertools.permutations(rows, 2):
            instantiated = _instantiate_one_pair(constraint, row1, row2)
            if instantiated is not None:
                emit(instantiated)


# -- constant CFDs --------------------------------------------------------------


def _in_domain(value: Value, domain: Iterable[Value]) -> bool:
    return any(values_equal(value, existing) for existing in domain)


def _instantiate_cfds(spec: Specification, emit) -> None:
    instance = spec.instance
    for cfd in spec.cfds:
        lhs_pattern = cfd.lhs_pattern
        # A pattern constant outside the active domain makes the CFD vacuous.
        if any(
            not _in_domain(value, instance.active_domain(attribute))
            for attribute, value in lhs_pattern.items()
        ):
            continue
        body: List[OrderLiteral] = []
        for attribute, pattern_value in sorted(lhs_pattern.items()):
            for other in instance.active_domain(attribute):
                if values_equal(other, pattern_value):
                    continue
                body.append(OrderLiteral(attribute, other, pattern_value))
        # Every other value of the RHS attribute is forced below the pattern
        # constant, which may lie outside the active domain.
        rhs_domain = instance.active_domain(cfd.rhs_attribute)
        for other in rhs_domain:
            if values_equal(other, cfd.rhs_value):
                continue
            emit(
                InstanceConstraint(
                    body=tuple(body),
                    head=OrderLiteral(cfd.rhs_attribute, other, cfd.rhs_value),
                    source_kind="cfd",
                    source_name=cfd.name or str(cfd),
                )
            )


# -- the deltas ------------------------------------------------------------------


class ReferenceDeltaEncoder(IncrementalEncoder):
    """The incremental encoder with its delta instances built on the object path.

    The currency instances of a delta come from :func:`_instantiate_one_pair`
    on dict rows, for every pair of a new row with an old one and every pair
    of new rows, and the CFD guards are refreshed from
    :func:`_instantiate_cfds`; each admitted object enters as its record and
    key, and everything else is the encoder's own.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._reference_rows: Dict[Tuple[str, ...], List[Dict[str, Value]]] = {}
        self._reference_seen: Dict[Tuple[str, ...], Set[Tuple[Hashable, ...]]] = {}

    def _delta_currency_constraints(
        self,
        new_spec: Specification,
        delta: TemporalOrderDelta,
        out: List[Record],
    ) -> None:
        if not delta.new_tuples:
            return
        by_attributes: Dict[Tuple[str, ...], List] = {}
        for constraint in new_spec.currency_constraints:
            attributes = tuple(sorted(constraint.referenced_attributes()))
            by_attributes.setdefault(attributes, []).append(constraint)
        for attributes, constraints in by_attributes.items():
            if attributes not in self._reference_rows:
                rows, seen = self._old_rows(new_spec, delta, attributes)
                self._reference_rows[attributes] = rows
                self._reference_seen[attributes] = seen
            rows = self._reference_rows[attributes]
            seen = self._reference_seen[attributes]
            fresh_rows: List[Dict[str, Value]] = []
            for item in delta.new_tuples:
                row = {attribute: item[attribute] for attribute in attributes}
                key = tuple(canonical_value(row[attribute]) for attribute in attributes)
                if self._options.mode == "projected" and key in seen:
                    continue
                seen.add(key)
                fresh_rows.append(row)
            if not fresh_rows:
                continue
            old_rows = list(rows)
            for constraint in constraints:
                pairs = [
                    pair
                    for new_row in fresh_rows
                    for old_row in old_rows
                    for pair in ((new_row, old_row), (old_row, new_row))
                ]
                pairs.extend(itertools.permutations(fresh_rows, 2))
                for row1, row2 in pairs:
                    instantiated = _instantiate_one_pair(constraint, row1, row2)
                    if instantiated is not None:
                        self._admit(*record_of(instantiated), out)
            rows.extend(fresh_rows)

    def _old_rows(
        self, new_spec: Specification, delta: TemporalOrderDelta, attributes: Tuple[str, ...]
    ) -> Tuple[List[Dict[str, Value]], Set[Tuple[Hashable, ...]]]:
        tids = new_spec.instance.tids
        new_tids = set(tids[len(tids) - len(delta.new_tuples):])
        rows: List[Dict[str, Value]] = []
        seen: Set[Tuple[Hashable, ...]] = set()
        for item in new_spec.instance:
            if item.tid in new_tids:
                continue
            row = {attribute: item[attribute] for attribute in attributes}
            key = tuple(canonical_value(row[attribute]) for attribute in attributes)
            if self._options.mode == "projected" and key in seen:
                continue
            seen.add(key)
            rows.append(row)
        return rows, seen

    def _delta_cfds(self, new_spec: Specification, delta: TemporalOrderDelta, clauses: List) -> List[Record]:
        if not new_spec.cfds or not delta.new_tuples:
            return []
        changed: Set[str] = set()
        for attribute in new_spec.schema.attribute_names:
            keys = self._adom_keys.setdefault(attribute, set())
            for item in delta.new_tuples:
                key = canonical_value(item[attribute])
                if key not in keys:
                    keys.add(key)
                    changed.add(attribute)
        if not any(changed & set(cfd.referenced_attributes()) for cfd in new_spec.cfds):
            return []

        collected: List[InstanceConstraint] = []
        _instantiate_cfds(new_spec, collected.append)
        fresh: Dict[Hashable, Record] = {}
        for constraint in collected:
            record, key = record_of(constraint)
            fresh.setdefault(key, record)
        stale_records = []
        for key in [key for key in self._guards if key not in fresh]:
            self._guards.pop(key)
            stale_records.append(self._guard_records.pop(key))
            self._retired_guards += 1
        if stale_records:
            stale_ids = {id(record) for record in stale_records}
            self._omega.records = [record for record in self._omega.records if id(record) not in stale_ids]
        added: List[Record] = []
        for key, record in fresh.items():
            if key in self._guards:
                continue
            clauses.append(self._guarded_clause(record, key))
            self._omega.records.append(record)
            added.append(record)
        return added
