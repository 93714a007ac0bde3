"""``TemporalInstance.extend`` as it re-derived NULL-lowest pairs over the whole instance, the reference.

:func:`reference_extend` rebuilds the extended entity instance from all its
tuples, passes the merged orders through the constructor (which registers
every tuple identifier in every order) and then walks every NULL-lowest pair
of the extended instance, trying only those that involve a new tuple.  The
tests check that :meth:`repro.core.instance.TemporalInstance.extend` gives
the same tuple identifiers and the same successor lists, in the same
insertion order, on every attribute: Φ's delta stream is read off that order.
"""

from typing import Dict, Iterator, Tuple

from repro.core.instance import EntityInstance, TemporalInstance, TemporalOrderDelta
from repro.core.partial_order import PartialOrder
from repro.core.values import is_null


def _null_pairs(instance: EntityInstance) -> Iterator[Tuple[object, object, str]]:
    """(NULL tuple, non-NULL tuple, attribute) for every pair NULL-lowest implies."""
    for attribute in instance.schema.attribute_names:
        null_tids = [t.tid for t in instance if is_null(t[attribute])]
        if not null_tids:
            continue
        nonnull_tids = [t.tid for t in instance if not is_null(t[attribute])]
        for null_tid in null_tids:
            for other_tid in nonnull_tids:
                yield (null_tid, other_tid, attribute)


def reference_extend(temporal: TemporalInstance, delta: TemporalOrderDelta) -> TemporalInstance:
    """``temporal ⊕ delta`` through the whole-instance NULL-lowest walk."""
    old = temporal.instance
    new_instance = (
        EntityInstance(old.schema, list(old.tuples) + list(delta.new_tuples))
        if delta.new_tuples
        else old
    )
    merged: Dict[str, PartialOrder] = {}
    for attribute in temporal.schema.attribute_names:
        order = temporal.order_for(attribute).copy()
        extra = delta.orders.get(attribute)
        if extra is not None:
            order.update(extra)
        merged[attribute] = order
    extended = TemporalInstance(new_instance, merged, rank_nulls_lowest=False)
    if delta.new_tuples:
        existing = set(old.tids)
        new_tids = {tid for tid in new_instance.tids if tid not in existing}
        for smaller_tid, larger_tid, attribute in _null_pairs(new_instance):
            if smaller_tid in new_tids or larger_tid in new_tids:
                extended.order_for(attribute).try_add(smaller_tid, larger_tid)
    return extended
