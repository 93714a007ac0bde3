"""Shared CDC test helpers: feeds bootstrapped from datasets and the
semantic projection used to compare consumer output against batch runs.

Timing fields and solver-session telemetry inside ``RoundReport`` legitimately
differ between a warm incremental re-resolution and a cold one (and between
any two runs at all), so equivalence is asserted over :func:`canonical_result`
— everything the resolution *means*: validity, completeness, the resolved
tuple, the true values, fallbacks, failure markers and the per-round
deductions/answers.
"""

from __future__ import annotations

from repro.api import RunConfig
from repro.cdc import TupleAdded, TupleRetracted, open_change_feed
from repro.cdc import feed as feed_module
from repro.datasets import mutate_rows
from repro.resolution import ResolverOptions


def bootstrap_events(dataset, changes=8, *, seed=11):
    """One TupleAdded per initial row, then a seeded mutation stream."""
    events = []
    for entity in dataset.entities:
        for row in entity.rows:
            events.append(TupleAdded(entity=entity.name, row=dict(row)))
    for mutation in mutate_rows(dataset, changes, seed=seed):
        cls = TupleRetracted if mutation.kind == "retract" else TupleAdded
        events.append(cls(entity=mutation.entity, row=dict(mutation.row)))
    return events


def make_feed(target, events):
    """Open *target* as a change feed and append *events* to it."""
    feed = open_change_feed(target)
    for event in events:
        feed.append(event)
    return feed


def record_decodes(monkeypatch):
    """Count JSONL envelope decodes: returns the list of decoded sequence
    numbers, which grows as the feed decodes stored lines."""
    decoded = []
    original = feed_module._decode_envelope

    def counting(text, where):
        record = original(text, where)
        decoded.append(record.seq)
        return record

    monkeypatch.setattr(feed_module, "_decode_envelope", counting)
    return decoded


def cdc_run_config(store) -> RunConfig:
    return RunConfig(
        options=ResolverOptions(max_rounds=0, fallback="none"), store=store
    )


def canonical_result(result):
    """The semantic projection of one resolution (no timings, no telemetry)."""
    return (
        result.valid,
        result.complete,
        dict(result.resolved_tuple),
        dict(result.true_values.values),
        tuple(result.fallback_attributes),
        result.failure,
        result.attempts,
        tuple(
            (
                report.round_index,
                report.valid,
                tuple(report.deduced_attributes),
                report.suggestion,
                tuple(sorted(report.answers.items())),
            )
            for report in result.rounds
        ),
    )


def canonical_store(store):
    """Semantic projection of a whole result store, keyed like the store."""
    return {
        (row.entity_key, row.specification_hash): canonical_result(row.result)
        for row in store.results()
    }
