"""Resumable change consumption: tail a feed, re-resolve only what changed.

The :class:`ChangeConsumer` closes the CDC loop: it tails a
:class:`~repro.cdc.feed.ChangeFeed` from a persisted cursor, folds each event
into a :class:`~repro.cdc.impact.RegistryState`, invalidates exactly the
affected :class:`~repro.api.store.ResultStore` entries, and re-resolves the
affected entities through a :class:`~repro.api.client.ResolutionClient` — so
after consuming the whole feed the store holds byte-for-byte the results a
full batch re-run over the final state would produce, having re-resolved only
the entities the changes actually touched.

Exactly-once is achieved by *replay plus idempotence*, not by transactions:

* state is derived purely from the feed — on resume the consumer replays
  events ``1..cursor`` into its :class:`RegistryState` (cheap: no store work,
  no resolution) and resolves only past the cursor;
* the cursor (a :class:`~repro.pipeline.checkpoint.Checkpoint`) advances only
  *after* an event's store work landed, so a crash in between re-applies the
  event on resume — harmless, because invalidation and result upserts are
  idempotent and resolution is deterministic.

The re-resolution itself rides the warm paths built by earlier layers: the
client's leased engine keeps its compiled-program cache across events, and
for ``tuple_added`` events on a sequential engine the consumer feeds the
entity's cached :class:`~repro.encoding.incremental.IncrementalEncoder` a
:class:`~repro.core.instance.TemporalOrderDelta` instead of re-encoding the
whole entity (counted in :attr:`ConsumeReport.delta_reuses`; anything the
delta path cannot recover — retractions, constraint edits, parallel engines —
falls back to a full re-encode).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from repro import faults
from repro.core.cfd import ConstantCFD
from repro.core.constraints import CurrencyConstraint
from repro.core.instance import TemporalOrderDelta
from repro.core.schema import RelationSchema
from repro.core.specification import Specification
from repro.core.tuples import EntityTuple
from repro.encoding.compiled import ConstraintProgramCache
from repro.encoding.incremental import IncrementalEncoder
from repro.pipeline.checkpoint import Checkpoint
from repro.resolution.framework import ResolutionResult

from repro.cdc.feed import (
    ChangeFeed,
    ConstraintChanged,
    FeedRecord,
    TupleAdded,
    open_change_feed,
)
from repro.cdc.impact import RegistryState

__all__ = ["ChangeConsumer", "ConsumeReport", "feed_status"]

#: Cached warm encoders per entity; oldest-touched evicted beyond this.
DEFAULT_ENCODER_CACHE = 256


@dataclass(frozen=True)
class ConsumeReport:
    """What one :meth:`ChangeConsumer.consume` call did."""

    #: Feed events applied by this call.
    applied: int
    #: The consumer's cursor after the call (last applied sequence number).
    position: int
    #: Entities re-resolved (an entity appears once per event that hit it).
    re_resolved: int
    #: Store rows dropped by invalidation.
    invalidated: int
    #: Entities whose stored result was moved to a new specification hash
    #: without re-resolving (constraint edits that provably missed them).
    rekeyed: int
    #: Entities whose last observation was retracted (invalidate only).
    removed: int
    #: Re-resolutions served by the incremental delta path (warm encoder).
    delta_reuses: int
    #: Re-resolutions that re-encoded the entity from scratch.
    full_encodes: int

    def as_dict(self) -> Dict[str, int]:
        """Counters as a dict, zero-valued ones omitted (except position).

        The omit-when-zero convention keeps golden outputs stable: a report
        serialized before a counter existed stays byte-identical when the
        counter is introduced but idle.
        """
        payload = {"applied": self.applied, "position": self.position}
        for key in (
            "re_resolved",
            "invalidated",
            "rekeyed",
            "removed",
            "delta_reuses",
            "full_encodes",
        ):
            value = getattr(self, key)
            if value:
                payload[key] = value
        return payload


def feed_status(
    feed: Union[ChangeFeed, str], position: int = 0, *, now: Optional[float] = None
) -> Dict[str, Any]:
    """Feed lag relative to a consumer *position* (omit-when-zero shaped).

    Always reports ``last_sequence``, ``position`` and ``behind``; when the
    consumer is behind, adds ``oldest_pending_age`` — seconds since the
    oldest unconsumed event was appended (against *now*, defaulting to
    :func:`time.time`).
    """
    owned = not isinstance(feed, ChangeFeed)
    feed = open_change_feed(feed)
    try:
        last = feed.last_sequence()
        status: Dict[str, Any] = {
            "last_sequence": last,
            "position": position,
            "behind": max(0, last - position),
        }
        if status["behind"]:
            for record in feed.events(after=position, limit=1):
                reference = time.time() if now is None else now
                status["oldest_pending_age"] = max(0.0, reference - record.ts)
                break
        return status
    finally:
        if owned:
            feed.close()


class ChangeConsumer:
    """Tail a change feed and keep a result store incrementally current.

    Parameters
    ----------
    feed:
        A :class:`ChangeFeed` or a target for
        :func:`~repro.cdc.feed.open_change_feed`.  A feed opened here is
        closed by :meth:`close`; a passed-in instance stays the caller's.
    client:
        The :class:`~repro.api.client.ResolutionClient` to re-resolve
        through.  Its :class:`~repro.api.store.ResultStore` (if any) receives
        the invalidations and refreshed results; its options decide whether
        the incremental delta path is available (``options.incremental`` and
        ``workers <= 1``).
    schema:
        Relation schema of the fed rows.
    sigma / gamma:
        The constraints in force before the feed's first event; a
        ``constraint_changed`` event replaces them.
    cursor:
        Optional checkpoint path (or :class:`Checkpoint`) persisting the
        consume position.  Without one the consumer starts from the feed's
        beginning each run.
    on_result:
        Optional callback invoked as ``on_result(entity_key, result)`` after
        each re-resolution (serving integrations emit wire responses here).
    """

    def __init__(
        self,
        feed: Union[ChangeFeed, str],
        client,
        schema: RelationSchema,
        *,
        sigma: Sequence[CurrencyConstraint] = (),
        gamma: Sequence[ConstantCFD] = (),
        cursor: Union[Checkpoint, str, None] = None,
        on_result: Optional[Callable[[str, ResolutionResult], None]] = None,
        encoder_cache: int = DEFAULT_ENCODER_CACHE,
    ) -> None:
        self._owns_feed = not isinstance(feed, ChangeFeed)
        self.feed = open_change_feed(feed)
        self.client = client
        self.state = RegistryState(schema, sigma, gamma)
        self.cursor = (
            cursor
            if cursor is None or isinstance(cursor, Checkpoint)
            else Checkpoint(cursor)
        )
        self.on_result = on_result
        self._encoder_cache = max(0, encoder_cache)
        self._encoders: Dict[str, IncrementalEncoder] = {}
        self._programs = ConstraintProgramCache()
        self._position = 0
        self._recovered = False
        # Lifetime counters (per-call deltas become ConsumeReports).
        self._applied = 0
        self._re_resolved = 0
        self._invalidated = 0
        self._rekeyed = 0
        self._removed = 0
        self._delta_reuses = 0
        self._full_encodes = 0

    # -- lifecycle -------------------------------------------------------------

    def __enter__(self) -> "ChangeConsumer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release cached encoder sessions and any feed opened here."""
        self._encoders.clear()
        if self._owns_feed:
            self.feed.close()

    @property
    def position(self) -> int:
        """Sequence number of the last fully applied event."""
        self._ensure_recovered()
        return self._position

    def status(self) -> Dict[str, Any]:
        """Feed lag for this consumer (see :func:`feed_status`)."""
        return feed_status(self.feed, self.position)

    # -- recovery --------------------------------------------------------------

    def _ensure_recovered(self) -> None:
        """Rebuild state by replaying the feed up to the persisted cursor."""
        if self._recovered:
            return
        self._recovered = True
        if self.cursor is None:
            return
        data = self.cursor.load()
        processed = int(data["processed"]) if data else 0
        if processed <= 0:
            return
        # Sequence numbers may skip (a hand-edited JSONL feed), so the limit
        # bounds the read and the check still stops at the cursor.
        for record in self.feed.events(limit=processed):
            if record.seq > processed:
                break
            self.state.apply(record.event)
            self._position = record.seq

    # -- consumption -----------------------------------------------------------

    def consume(self, max_events: Optional[int] = None) -> ConsumeReport:
        """Apply pending feed events (all of them, or at most *max_events*).

        Each event is fully applied — state folded, store invalidated,
        affected entities re-resolved and stored — before the cursor
        advances, so a crash anywhere leaves a resumable consumer.
        """
        self._ensure_recovered()
        before = (
            self._applied,
            self._re_resolved,
            self._invalidated,
            self._rekeyed,
            self._removed,
            self._delta_reuses,
            self._full_encodes,
        )
        for record in self.feed.events(after=self._position, limit=max_events):
            self._apply(record)
        return ConsumeReport(
            applied=self._applied - before[0],
            position=self._position,
            re_resolved=self._re_resolved - before[1],
            invalidated=self._invalidated - before[2],
            rekeyed=self._rekeyed - before[3],
            removed=self._removed - before[4],
            delta_reuses=self._delta_reuses - before[5],
            full_encodes=self._full_encodes - before[6],
        )

    def _apply(self, record: FeedRecord) -> None:
        event = record.event
        store = self.client.store
        # Constraint edits re-key unaffected entities: capture their digests
        # under the outgoing Σ ∪ Γ before the state folds the event in.
        old_digests: Dict[str, str] = {}
        if isinstance(event, ConstraintChanged):
            old_digests = {
                entity: self._digest(self.state.specification(entity))
                for entity in self.state.entities()
            }
            self._encoders.clear()  # new clauses: every cached session is stale
        impact = self.state.apply(event)

        for entity in impact.removed:
            self._encoders.pop(entity, None)
            if store is not None:
                self._invalidated += store.invalidate([entity])
            self._removed += 1
        for entity in impact.rekeyed:
            self._rekey(store, entity, old_digests.get(entity))
        for entity in impact.affected:
            if not isinstance(event, TupleAdded):
                self._encoders.pop(entity, None)
            if store is not None:
                self._invalidated += store.invalidate([entity])
            self._re_resolve(event, entity)

        # The worst-case crash window: store work landed, cursor not yet
        # advanced.  A resumed consumer re-applies this event idempotently.
        faults.on_consumer_event(record.seq)
        self._position = record.seq
        self._applied += 1
        if self.cursor is not None:
            self.cursor.save(self._position)

    def _rekey(self, store, entity: str, old_digest: Optional[str]) -> None:
        """Move an unaffected entity's stored result under the new spec hash."""
        self._rekeyed += 1
        if store is None or old_digest is None:
            return
        stored = store.get(entity, old_digest)
        if stored is None:
            return
        new_digest = self._digest(self.state.specification(entity))
        if new_digest != old_digest:
            store.put(entity, new_digest, stored)
            self._invalidated += store.invalidate([entity], old_digest)

    def _re_resolve(self, event, entity: str) -> None:
        spec = self.state.specification(entity)
        encoder, warm = self._encoder_for(event, entity, spec)
        if encoder is not None:
            if warm:
                self._delta_reuses += 1
            else:
                self._full_encodes += 1
        else:
            self._full_encodes += 1
        result = self.client.resolve(spec, encoder=encoder)
        self._re_resolved += 1
        # Interaction rounds extend the encoder's specification beyond the
        # feed-derived rows, so such sessions cannot serve later deltas.
        if encoder is not None and not result.failure and not result.interaction_rounds:
            self._remember_encoder(entity, encoder)
        else:
            self._encoders.pop(entity, None)
        if self.on_result is not None:
            self.on_result(entity, result)

    # -- encoder cache ---------------------------------------------------------

    def _delta_capable(self) -> bool:
        options = self.client.config.options
        return (
            self._encoder_cache > 0
            and options.incremental
            and self.client.config.workers <= 1
        )

    def _encoder_for(
        self, event, entity: str, spec: Specification
    ) -> Tuple[Optional[IncrementalEncoder], bool]:
        """A warm (delta-extended) or cold encoder for *entity*, if eligible.

        Returns ``(encoder, warm)``; ``(None, False)`` leaves the resolver to
        encode internally (parallel engines, non-incremental options).
        """
        if not self._delta_capable():
            return None, False
        cached = self._encoders.pop(entity, None)
        if cached is not None and isinstance(event, TupleAdded):
            # The cached session already encodes all prior rows; append only
            # the new observation's clauses.
            delta = TemporalOrderDelta(
                new_tuples=[EntityTuple(self.state.schema, dict(event.row))]
            )
            cached.apply_delta(delta)
            return cached, True
        options = self.client.config.options
        program = (
            self._programs.program_for(spec, options.instantiation)
            if options.compiled
            else None
        )
        encoder = IncrementalEncoder(
            spec,
            options.instantiation,
            backend=options.solver_backend,
            program=program,
            budget=options.budget,
        )
        return encoder, False

    def _remember_encoder(self, entity: str, encoder: IncrementalEncoder) -> None:
        self._encoders[entity] = encoder
        while len(self._encoders) > self._encoder_cache:
            self._encoders.pop(next(iter(self._encoders)))

    # -- helpers ---------------------------------------------------------------

    def _digest(self, spec: Specification) -> str:
        return self.client.config.spec_hash(spec)
