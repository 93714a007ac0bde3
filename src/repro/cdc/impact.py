"""Impact mapping: which resolutions does one change event affect?

Replaying the feed rebuilds *state*; the impact mapper decides *work*.  The
:class:`RegistryState` tracks what the feed has built so far — the observed
rows per entity plus the active Σ ∪ Γ — and :meth:`RegistryState.apply`
folds one event into it, returning an :class:`Impact` that names:

* **affected** — entity keys whose stored result is stale and must be
  invalidated and re-resolved.  For tuple events that is exactly the event's
  blocking key; for constraint edits it is every entity with at least one
  non-null observed value on a *touched attribute* (an attribute mentioned
  by any added or removed constraint) — a constraint that references only
  attributes an entity observes as NULL cannot instantiate on it, so the
  entity's resolution is provably unchanged;
* **rekeyed** — entities a constraint edit did *not* affect.  Their stored
  result is still correct, but it is keyed under the old
  :func:`~repro.api.config.specification_hash` (the hash covers Σ ∪ Γ); the
  consumer moves the row to the new hash instead of re-resolving;
* **removed** — entities whose last observation was retracted; there is
  nothing left to resolve, only store entries to invalidate.

Specifications are built exactly like the serving layer builds them
(:class:`~repro.serving.wire.SpecificationBuilder` shape: the entity name is
the specification name), so results the consumer stores land under the same
``(entity key, specification hash)`` a batch or serving run would use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cfd import ConstantCFD
from repro.core.constraints import CurrencyConstraint
from repro.core.instance import EntityInstance, TemporalInstance
from repro.core.schema import RelationSchema
from repro.core.specification import Specification, ValidatedConstraints, validated_constraints
from repro.core.tuples import EntityTuple
from repro.core.values import Value, is_null
from repro.io.constraints_io import dump_constraints, parse_constraint_text

from repro.cdc.feed import (
    ChangeEvent,
    ConstraintChanged,
    FeedError,
    TupleAdded,
    TupleRetracted,
    _json_row,
)

__all__ = ["Impact", "RegistryState", "touched_attributes"]


@dataclass(frozen=True)
class Impact:
    """The work one applied event creates (see the module docstring)."""

    #: Entity keys to invalidate *and* re-resolve, in deterministic order.
    affected: Tuple[str, ...] = ()
    #: Entities whose stored result is still valid but keyed under the old
    #: specification hash (constraint edits only).
    rekeyed: Tuple[str, ...] = ()
    #: Entities that ceased to exist (last row retracted): invalidate only.
    removed: Tuple[str, ...] = ()
    #: Attributes mentioned by the changed constraints (constraint edits only).
    touched: Tuple[str, ...] = ()


def _constraint_attributes(constraint) -> frozenset:
    """Every attribute one constraint mentions (body and conclusion sides)."""
    if isinstance(constraint, CurrencyConstraint):
        names = {constraint.conclusion_attribute}
        for predicate in constraint.body:
            names |= set(predicate.referenced_attributes())
        return frozenset(names)
    if isinstance(constraint, ConstantCFD):
        return frozenset(
            {attribute for attribute, _value in constraint.lhs} | {constraint.rhs_attribute}
        )
    raise FeedError(f"unknown constraint type {type(constraint).__name__}")


def touched_attributes(
    old_sigma: Sequence[CurrencyConstraint],
    old_gamma: Sequence[ConstantCFD],
    new_sigma: Sequence[CurrencyConstraint],
    new_gamma: Sequence[ConstantCFD],
) -> Tuple[str, ...]:
    """Attributes mentioned by any constraint added or removed by an edit.

    Constraint identity is the canonical constraint-file text of the single
    constraint (the same serialization the specification hash digests), so
    reordering a constraint file touches nothing.
    """

    def keyed(sigma, gamma) -> Dict[str, frozenset]:
        table: Dict[str, frozenset] = {}
        for constraint in list(sigma) + list(gamma):
            is_sigma = isinstance(constraint, CurrencyConstraint)
            text = dump_constraints(
                [constraint] if is_sigma else [], [] if is_sigma else [constraint]
            )
            table[text] = _constraint_attributes(constraint)
        return table

    old = keyed(old_sigma, old_gamma)
    new = keyed(new_sigma, new_gamma)
    touched = set()
    for text in set(old).symmetric_difference(set(new)):
        touched |= (old.get(text) or new.get(text) or frozenset())
    return tuple(sorted(touched))


class RegistryState:
    """The registry a change feed has built so far (rows + constraints).

    The state is derived purely from the feed — replaying events 1..n from
    an empty state always lands on the same rows and constraints, which is
    what makes a persisted cursor sufficient to resume a consumer: rebuild
    by replay (cheap, no resolution), then resolve only past the cursor.
    """

    def __init__(
        self,
        schema: RelationSchema,
        sigma: Sequence[CurrencyConstraint] = (),
        gamma: Sequence[ConstantCFD] = (),
    ) -> None:
        self.schema = schema
        self.sigma: List[CurrencyConstraint] = list(sigma)
        self.gamma: List[ConstantCFD] = list(gamma)
        #: Observed rows per entity key, in arrival order.
        self.rows: Dict[str, List[Dict[str, Value]]] = {}
        # The Σ and Γ last validated (see validated_constraints).
        self._validated: Optional[ValidatedConstraints] = None

    # -- event application -----------------------------------------------------

    def apply(self, event: ChangeEvent) -> Impact:
        """Fold one event into the state; return the work it creates."""
        if isinstance(event, TupleAdded):
            self.rows.setdefault(event.entity, []).append(_json_row(event.row))
            return Impact(affected=(event.entity,))
        if isinstance(event, TupleRetracted):
            return self._retract(event)
        if isinstance(event, ConstraintChanged):
            return self._change_constraints(event)
        raise FeedError(f"unknown change event {type(event).__name__}")

    def _retract(self, event: TupleRetracted) -> Impact:
        rows = self.rows.get(event.entity)
        target = _json_row(event.row)
        if not rows or target not in rows:
            raise FeedError(
                f"retraction for {event.entity!r} does not match any observed row"
            )
        rows.remove(target)
        if rows:
            return Impact(affected=(event.entity,))
        del self.rows[event.entity]
        return Impact(removed=(event.entity,))

    def _change_constraints(self, event: ConstraintChanged) -> Impact:
        try:
            new_sigma, new_gamma = parse_constraint_text(event.constraints)
        except Exception as error:
            raise FeedError(f"constraint_changed carries unparsable text: {error}") from error
        touched = touched_attributes(self.sigma, self.gamma, new_sigma, new_gamma)
        self.sigma = list(new_sigma)
        self.gamma = list(new_gamma)
        affected = []
        rekeyed = []
        for entity in sorted(self.rows):
            if any(
                not is_null(row.get(attribute))
                for row in self.rows[entity]
                for attribute in touched
            ):
                affected.append(entity)
            else:
                rekeyed.append(entity)
        return Impact(affected=tuple(affected), rekeyed=tuple(rekeyed), touched=touched)

    # -- specifications --------------------------------------------------------

    def entities(self) -> Tuple[str, ...]:
        """The live entity keys, sorted."""
        return tuple(sorted(self.rows))

    def specification(self, entity: str) -> Specification:
        """The entity's current specification (serving-layer shape)."""
        rows = self.rows.get(entity)
        if not rows:
            raise FeedError(f"no observed rows for entity {entity!r}")
        self._validated = validated_constraints(self.schema, self.sigma, self.gamma, self._validated)
        _, sigma, gamma = self._validated
        tuples = [EntityTuple(self.schema, dict(row)) for row in rows]
        instance = EntityInstance(self.schema, tuples)
        return Specification._from_validated(TemporalInstance(instance), sigma, gamma, name=entity)
