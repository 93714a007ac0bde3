"""The delta's order facts and ground-fact closure as whole-order diffs, the reference.

:class:`ReferenceFactsEncoder` is the incremental encoder with two steps of
a delta done the plain way.  Its order facts diff every successor of every
tuple against the old successor list, and its ground-fact closure takes the
closure of each touched attribute's fact order before and after the new
facts and admits what is new.  The tests check that
:class:`~repro.encoding.incremental.IncrementalEncoder`, which reads only
each successor list's tail and keeps the closed pairs as a set, admits the
same records in the same order.
"""

from typing import Dict, Hashable, List, Sequence, Tuple

from repro.core.errors import CyclicOrderError
from repro.core.partial_order import PartialOrder
from repro.core.specification import Specification
from repro.encoding.incremental import IncrementalEncoder
from repro.encoding.instance_constraints import Record, _record_key


class ReferenceFactsEncoder(IncrementalEncoder):
    """The incremental encoder with whole-order diffs for a delta's facts and closure."""

    def _delta_order_facts(self, old_spec: Specification, new_spec: Specification, out: List[Record]) -> None:
        instance = new_spec.instance
        for attribute in new_spec.schema.attribute_names:
            old_map = old_spec.temporal_instance.order_for(attribute).successor_map()
            new_map = new_spec.temporal_instance.order_for(attribute).successor_map()
            for older_tid, newer_tids in new_map.items():
                known = old_map.get(older_tid) or ()
                older_value = instance[older_tid][attribute]
                for newer_tid in newer_tids:
                    if newer_tid in known:
                        continue
                    newer_value = instance[newer_tid][attribute]
                    if older_value == newer_value:
                        continue
                    head = (attribute, older_value, newer_value)
                    self._admit(("order", f"{older_tid}≺{newer_tid}", (), head), _record_key((), head), out)

    def _delta_fact_closure(self, fresh: List[Record], clauses: List[Sequence[int]]) -> bool:
        new_edges: Dict[str, List[Tuple[Hashable, Hashable]]] = {}
        for _, _, body, head in fresh:
            if not body:
                new_edges.setdefault(head[0], []).append((head[1], head[2]))
        closure_facts: List[Record] = []
        for attribute, edges in new_edges.items():
            order = self._fact_orders.setdefault(attribute, PartialOrder())
            before = set(order.transitive_closure_pairs())
            try:
                for older, newer in edges:
                    order.add(older, newer)
            except CyclicOrderError:
                self._omega.inherently_invalid = True
                self._omega.invalid_reason = (
                    f"the ground currency facts on attribute {attribute!r} form a cycle"
                )
                self._keys.add(_record_key((), None))
                self._omega.records.append(("conflict", attribute, (), None))
                clauses.append([])
                return False
            for older, newer in order.transitive_closure_pairs():
                if (older, newer) in before or (older, newer) in edges:
                    continue
                head = (attribute, older, newer)
                self._admit(("closure", attribute, (), head), _record_key((), head), closure_facts)
        fresh.extend(closure_facts)
        return True
