"""Entity instances and temporal instances (paper Section II-A).

* An :class:`EntityInstance` is a set of tuples of one relation schema that all
  pertain to the same real-world entity (the output of record linkage).
* A :class:`TemporalInstance` pairs an entity instance with one partial
  *currency order* per attribute — the temporal knowledge that is available,
  possibly empty.  The strict part ``t1 ≺_A t2`` means "t2 carries a more
  current A-value than t1".
* A :class:`TemporalOrderDelta` is the additional currency information
  ``O_t`` that users contribute during conflict resolution; a specification is
  extended with it through ``S_e ⊕ O_t``.

NULL handling follows the paper: a tuple whose ``A`` value is missing is
ranked lowest in the currency order for ``A``; :class:`TemporalInstance`
materialises those pairs automatically unless told otherwise.

Instances are immutable, and a round of the interactive loop extends one by
a few tuples, so extension costs the delta: :meth:`EntityInstance.with_tuples`
checks only the new tuples and extends the active domains the instance has
already computed, and :meth:`TemporalInstance.extend` derives NULL-lowest
pairs only for the new tuples.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Sequence

from repro.core.errors import SchemaError
from repro.core.partial_order import PartialOrder
from repro.core.schema import RelationSchema
from repro.core.tuples import EntityTuple
from repro.core.values import Value, is_null, values_equal

__all__ = ["EntityInstance", "TemporalInstance", "TemporalOrderDelta"]


class EntityInstance:
    """A set of tuples pertaining to one entity.

    Tuples without an identifier receive consecutive identifiers
    ``"t0", "t1", ...`` in input order; identifiers must be unique.

    An instance is immutable: its tuples are kept as one tuple, and each
    attribute's active domain is computed on first use and kept.
    :meth:`with_tuples` extends both by the new tuples instead of scanning
    the old ones again.  Pickles carry only the tuples, never the kept
    domains.
    """

    def __init__(self, schema: RelationSchema, tuples: Sequence[EntityTuple]) -> None:
        self._schema = schema
        self._tuples: Dict[str | int, EntityTuple] = {}
        self._order: List[str | int] = []
        self._append(tuples)

    def _append(self, tuples: Sequence[EntityTuple]) -> None:
        """Check and add *tuples* after the current ones; set the kept tuple of all of them."""
        schema, by_tid, order = self._schema, self._tuples, self._order
        for position, item in enumerate(tuples, start=len(order)):
            if item.schema != schema:
                raise SchemaError("all tuples of an entity instance must share the instance schema")
            if item.tid is None:
                item = item.with_tid(f"t{position}")
            if item.tid in by_tid:
                raise SchemaError(f"duplicate tuple identifier {item.tid!r} in entity instance")
            by_tid[item.tid] = item
            order.append(item.tid)
        self._items: tuple[EntityTuple, ...] = tuple(by_tid[tid] for tid in order)
        self._domains: Dict[str, tuple[Value, ...]] = {}

    def __getstate__(self) -> Dict[str, object]:
        return {"_schema": self._schema, "_tuples": self._tuples, "_order": self._order}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._items = tuple(self._tuples[tid] for tid in self._order)
        self._domains = {}

    # -- basic access ----------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        """Schema shared by all tuples of the instance."""
        return self._schema

    @property
    def tuples(self) -> tuple[EntityTuple, ...]:
        """The tuples of the instance, in insertion order."""
        return self._items

    @property
    def tids(self) -> tuple[str | int, ...]:
        """Tuple identifiers, in insertion order."""
        return tuple(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[EntityTuple]:
        return iter(self._items)

    def __getitem__(self, tid: str | int) -> EntityTuple:
        try:
            return self._tuples[tid]
        except KeyError:
            raise SchemaError(f"no tuple with identifier {tid!r} in this entity instance") from None

    def __contains__(self, tid: object) -> bool:
        return tid in self._tuples

    # -- derived information ---------------------------------------------

    def active_domain(self, attribute: str) -> tuple[Value, ...]:
        """Return ``adom(I_e.A)``: the distinct values of *attribute* in the instance.

        NULL is included when some tuple misses the attribute, because it
        participates in currency orders (it ranks lowest).  The result is
        deterministic (insertion order of first occurrence).
        """
        domain = self._domains.get(attribute)
        if domain is None:
            self._schema.require([attribute])
            domain = self._domains[attribute] = _distinct(self._items, attribute, {})
        return domain

    def conflicting_attributes(self) -> tuple[str, ...]:
        """Attributes for which the instance holds more than one distinct value."""
        return tuple(
            attribute
            for attribute in self._schema.attribute_names
            if len(self.active_domain(attribute)) > 1
        )

    def with_tuples(self, extra: Sequence[EntityTuple]) -> "EntityInstance":
        """Return a new instance containing this instance's tuples plus *extra*.

        Only *extra* is checked, and the active domains this instance has
        computed are extended by the values *extra* adds.
        """
        extended = EntityInstance.__new__(EntityInstance)
        extended._schema = self._schema
        extended._tuples = dict(self._tuples)
        extended._order = list(self._order)
        extended._append(extra)
        added = extended._items[len(self._items):]
        for attribute, domain in self._domains.items():
            extended._domains[attribute] = domain + _distinct(added, attribute, dict.fromkeys(domain))
        return extended

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"EntityInstance(schema={self._schema.name!r}, tuples={len(self)})"


def _distinct(items: Sequence[EntityTuple], attribute: str, seen: Dict[Value, None]) -> tuple[Value, ...]:
    """The values of *attribute* in *items* that *seen* lacks, in first-occurrence order.

    Tuple values are normalised (NULL is the interned marker, never
    ``None``), so dict dedup by ``hash``/``==`` matches the pairwise
    ``values_equal`` scan while staying O(n).
    """
    fresh: List[Value] = []
    for item in items:
        value = item[attribute]
        if value not in seen:
            seen[value] = None
            fresh.append(value)
    return tuple(fresh)


class TemporalInstance:
    """An entity instance equipped with per-attribute partial currency orders.

    Parameters
    ----------
    instance:
        The underlying entity instance.
    orders:
        Mapping from attribute name to a :class:`PartialOrder` over tuple
        identifiers; attributes without an entry get an empty order.
    rank_nulls_lowest:
        When ``True`` (default, following the paper) every tuple with a NULL
        value in attribute ``A`` is ordered below every tuple with a non-NULL
        ``A`` value.
    """

    def __init__(
        self,
        instance: EntityInstance,
        orders: Mapping[str, PartialOrder] | None = None,
        *,
        rank_nulls_lowest: bool = True,
    ) -> None:
        self._instance = instance
        schema = instance.schema
        provided = dict(orders or {})
        schema.require(provided.keys())
        self._orders: Dict[str, PartialOrder] = {}
        tids = instance.tids
        for attribute in schema.attribute_names:
            order = provided.get(attribute, PartialOrder()).copy()
            for tid in tids:
                order.add_element(tid)
            self._orders[attribute] = order
            if rank_nulls_lowest:
                for smaller_tid, larger_tid in _null_pairs((), instance.tuples, attribute, False):
                    order.try_add(smaller_tid, larger_tid)

    # -- access ----------------------------------------------------------

    @property
    def instance(self) -> EntityInstance:
        """The underlying entity instance ``I_e``."""
        return self._instance

    @property
    def schema(self) -> RelationSchema:
        """Schema of the underlying instance."""
        return self._instance.schema

    @property
    def orders(self) -> Dict[str, PartialOrder]:
        """Per-attribute currency orders over tuple identifiers (strict parts)."""
        return dict(self._orders)

    def order_for(self, attribute: str) -> PartialOrder:
        """Return the currency order for *attribute*."""
        self.schema.require([attribute])
        return self._orders[attribute]

    def more_current(self, older_tid: str | int, newer_tid: str | int, attribute: str) -> bool:
        """Return ``True`` when ``older ≺_A newer`` is known (strict order)."""
        return self.order_for(attribute).precedes(older_tid, newer_tid)

    def size(self) -> int:
        """Total number of recorded order edges over all attributes."""
        return sum(len(order) for order in self._orders.values())

    # -- extension (S_e ⊕ O_t) -------------------------------------------

    def extend(self, delta: "TemporalOrderDelta") -> "TemporalInstance":
        """Return a new temporal instance enriched with *delta* (the ``⊕`` operator).

        Only the delta is walked.  Each order is copied (a copy keeps every
        successor list in insertion order), *delta*'s edges and the new
        tuples are appended to it, and NULL-lowest pairs are derived for the
        new tuples alone: pairs among the old tuples are settled in the
        copies already (edges are only ever added, so a pair rejected for a
        cycle stays rejected and an accepted one is present).  The new pairs
        are tried in the order the constructor's full derivation tries them,
        so the result is the instance that derivation would build.
        """
        old = self._instance
        instance = old.with_tuples(delta.new_tuples) if delta.new_tuples else old
        # Read the new tuples from the extended instance: a tuple appended
        # with ``tid=None`` only gets its identifier there.
        added = instance.tuples[len(old):]
        extended = TemporalInstance.__new__(TemporalInstance)
        extended._instance = instance
        extended._orders = {}
        for attribute in self.schema.attribute_names:
            order = self._orders[attribute].copy()
            extra = delta.orders.get(attribute)
            if extra is not None:
                order.update(extra)
            for item in added:
                order.add_element(item.tid)
            if added:
                old_has_null = any(is_null(value) for value in old.active_domain(attribute))
                for smaller_tid, larger_tid in _null_pairs(old.tuples, added, attribute, old_has_null):
                    order.try_add(smaller_tid, larger_tid)
            extended._orders[attribute] = order
        return extended

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TemporalInstance(tuples={len(self._instance)}, edges={self.size()})"


def _null_pairs(
    old: Sequence[EntityTuple], added: Sequence[EntityTuple], attribute: str, old_has_null: bool
) -> Iterator[tuple[str | int, str | int]]:
    """The NULL-lowest pairs on *attribute* that involve a tuple of *added*, which follows *old*.

    Every tuple with a NULL value goes below every tuple without one, each
    side in instance order.  With no *old* tuples these are all the pairs
    of *added*; otherwise *old* is read only when *old_has_null* says it
    holds a NULL or a new value is NULL.
    """
    new_nulls = [item.tid for item in added if is_null(item[attribute])]
    new_others = [item.tid for item in added if not is_null(item[attribute])]
    if new_others and old_has_null:
        for item in old:
            if is_null(item[attribute]):
                for other_tid in new_others:
                    yield (item.tid, other_tid)
    if new_nulls:
        others = [item.tid for item in old if not (old_has_null and is_null(item[attribute]))]
        others.extend(new_others)
        for null_tid in new_nulls:
            for other_tid in others:
                yield (null_tid, other_tid)


class TemporalOrderDelta:
    """Additional currency information ``O_t`` (user input or deduction output).

    It may introduce new tuples (e.g. the synthetic tuple ``t_o`` built from a
    user's answers, see paper Section III, Remark (1)) and adds order edges on
    top of an existing temporal instance.
    """

    def __init__(
        self,
        orders: Mapping[str, PartialOrder] | None = None,
        new_tuples: Iterable[EntityTuple] | None = None,
    ) -> None:
        self.orders: Dict[str, PartialOrder] = {name: order.copy() for name, order in (orders or {}).items()}
        self.new_tuples: List[EntityTuple] = list(new_tuples or [])

    def add(self, attribute: str, smaller_tid: str | int, larger_tid: str | int) -> None:
        """Record ``smaller ≺_A larger`` in the delta."""
        self.orders.setdefault(attribute, PartialOrder()).add(smaller_tid, larger_tid)

    def size(self) -> int:
        """``|O_t|``: the total number of order edges contributed."""
        return sum(len(order) for order in self.orders.values())

    def is_empty(self) -> bool:
        """Return ``True`` when the delta adds neither tuples nor edges."""
        return not self.new_tuples and self.size() == 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TemporalOrderDelta(edges={self.size()}, new_tuples={len(self.new_tuples)})"
