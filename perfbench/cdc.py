"""``cdc``: a ``ChangeConsumer`` following NBA row changes over a JSONL feed.

The live state starts the way a deployment starts following a feed: the
bootstrap rows are already in the feed, the store is batch-loaded from them
and a cursor is saved; set-up then opens the consumer, which recovers its
registry by replaying the feed up to the cursor.  Seeded row changes
(typos, stale re-reports, retractions) are skewed over the players: most
hit a hot set that fits in the consumer's encoder cache, the rest a cold
tail that does not.

* Drain phase: a backlog is appended up front and consumed in one call;
  it gives ``throughput_per_s``.  Every timed set-up gets its own copy of
  the feed and drains the same backlog, and the best drain counts:
  slowdowns from other tenants of a shared host only ever add time.
* Live phase: changes are appended on a fixed schedule between
  ``consume(max_events=1)`` calls in the same thread; it gives the
  latency from scheduled append to stored result, and the lag.

Timings are not scaled by ``common.HostProbe``: a drain is one call, with
no gaps between units to probe in.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter, deque
from typing import Any, Dict, List, Tuple

from common import SETUP_REPEATS, Context, Outcome, p50_p95_ms
from layers import Tracer
from repro.api import MemoryResultStore, ResolutionClient, RunConfig, SqliteResultStore
from repro.cdc import ChangeConsumer, TupleAdded, TupleRetracted, open_change_feed
from repro.cdc.consumer import DEFAULT_ENCODER_CACHE
from repro.cdc.impact import RegistryState
from repro.datasets import NBAConfig, generate_nba_dataset, mutate_rows
from repro.datasets.base import GeneratedDataset
from repro.evaluation.metrics import AccuracyCounts, score_entity
from repro.pipeline.checkpoint import Checkpoint
from repro.resolution.framework import ResolverOptions

#: Players in the registry, drawn by the seed from a population generated
#: with a fixed seed, so every run faces the same teams and constraints.
PLAYERS = 300
POPULATION = 600
POPULATION_SEED = 17
#: Players that receive HOT_SHARE of the changes; fits the encoder cache.
HOT_SET = 192
HOT_SHARE = 0.8
#: Changes in the drain phase's backlog.
DRAIN_CHANGES = 200
#: Changes per second appended in the live phase, which lasts the whole
#: window.  Every ``consume`` call re-reads the JSONL feed, so live following
#: serves about 20 changes/s at this feed length; this is half of that.
LIVE_RATE = 10.0
#: A live change stored within this many seconds of its schedule counts
#: toward goodput.
LATENCY_LIMIT_S = 1.0
CONFIG = RunConfig(options=ResolverOptions(max_rounds=0, fallback="none"))


def _dataset(seed: int) -> GeneratedDataset:
    population = generate_nba_dataset(
        NBAConfig(num_players=POPULATION, seasons=3, sources_per_season=(1, 2), seed=POPULATION_SEED)
    )
    players = random.Random(seed).sample(population.entities, PLAYERS)
    return GeneratedDataset(population.name, population.schema, players,
                            population.currency_constraints, population.cfds)


def _changes(dataset: GeneratedDataset, count: int, seed: int) -> Tuple[List[Any], Counter]:
    """*count* seeded changes, HOT_SHARE of them on a hot set of players."""
    rng = random.Random(seed)
    hot_names = set(rng.sample([entity.name for entity in dataset.entities], HOT_SET))

    def view(hot: bool) -> GeneratedDataset:
        members = [entity for entity in dataset.entities if (entity.name in hot_names) == hot]
        return GeneratedDataset(dataset.name, dataset.schema, members,
                                dataset.currency_constraints, dataset.cfds)

    hot_count = round(count * HOT_SHARE)
    # The two views share no player, so interleaving them keeps every
    # retraction after the additions it depends on.
    streams = {
        True: iter(mutate_rows(view(True), hot_count, seed=seed + 1)),
        False: iter(mutate_rows(view(False), count - hot_count, seed=seed + 2)),
    }
    order = [True] * hot_count + [False] * (count - hot_count)
    rng.shuffle(order)
    events, kinds = [], Counter()
    for hot in order:
        mutation = next(streams[hot])
        kinds[mutation.kind] += 1
        kind = TupleRetracted if mutation.kind == "retract" else TupleAdded
        events.append(kind(entity=mutation.entity, row=dict(mutation.row)))
    return events, kinds


def _bootstrap(dataset: GeneratedDataset) -> List[Any]:
    return [TupleAdded(entity=entity.name, row=dict(row)) for entity in dataset.entities for row in entity.rows]


class _Live:
    """One followed feed: store, client and consumer."""

    def __init__(self, dataset, work, feed_path, bootstrap, tag) -> None:
        sigma, gamma = tuple(dataset.currency_constraints), tuple(dataset.cfds)
        state = RegistryState(dataset.schema, sigma, gamma)
        for event in bootstrap:
            state.apply(event)
        self.store = SqliteResultStore(work / f"store-{tag}.db")
        self.client = ResolutionClient(RunConfig(options=CONFIG.options, store=self.store))
        for _ in self.client.resolve_stream([state.specification(name) for name in state.entities()]):
            pass
        cursor = work / f"cursor-{tag}.json"
        Checkpoint(cursor).save(len(bootstrap))
        self.consumer = ChangeConsumer(str(feed_path), self.client, dataset.schema,
                                       sigma=sigma, gamma=gamma, cursor=str(cursor))
        self.consumer.position  # recovers the registry up to the cursor

    def close(self) -> None:
        self.consumer.close()
        self.client.close()
        self.store.close()


def _canonical(store) -> Dict:
    """Stored results without timings or solver telemetry."""
    return {
        (row.entity_key, row.specification_hash): (
            row.result.valid,
            row.result.complete,
            dict(row.result.resolved_tuple),
            dict(row.result.true_values.values),
            row.result.failure,
            row.result.attempts,
        )
        for row in store.results()
    }


def _drain(live: _Live, drain: List[Any]) -> Dict[str, Any]:
    """Append the backlog, then consume it in one call."""
    start = time.perf_counter()
    for event in drain:
        live.consumer.feed.append(event)
    appended = time.perf_counter()
    report = live.consumer.consume()
    done = time.perf_counter()
    return {"span": (appended, done), "busy_s": done - start, "report": report}


def _follow(live: _Live, changes: List[Any]) -> Dict[str, Any]:
    """Append *changes* on the live schedule between one-event consumes."""
    consumer, feed = live.consumer, live.consumer.feed
    reports = []
    spans: List[Tuple[float, float]] = []
    pending: deque = deque()
    idle = late = 0.0
    max_behind = appended = 0
    last = feed.last_sequence()
    start = time.perf_counter()
    while appended < len(changes) or pending:
        now = time.perf_counter()
        while appended < len(changes) and start + appended / LIVE_RATE <= now:
            due = start + appended / LIVE_RATE
            last = feed.append(changes[appended])
            late = max(late, time.perf_counter() - due)
            pending.append((last, due))
            appended += 1
        max_behind = max(max_behind, last - consumer.position)
        if pending:
            reports.append(consumer.consume(max_events=1))
            done = time.perf_counter()
            while pending and pending[0][0] <= consumer.position:
                spans.append((pending.popleft()[1], done))
        else:
            pause = start + appended / LIVE_RATE - time.perf_counter()
            if pause > 0:
                slept = time.perf_counter()
                time.sleep(pause)
                idle += time.perf_counter() - slept
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        # Wall without the waits for the schedule.
        "busy_s": wall - idle,
        "spans": spans,
        "max_behind": max_behind,
        "generator_late_s": late,
        "reports": reports,
    }


def _totals(*reports) -> Dict[str, int]:
    return {key: sum(getattr(report, key) for report in reports)
            for key in ("applied", "re_resolved", "delta_reuses", "full_encodes")}


def run(ctx: Context, tracer: Tracer = None) -> Outcome:
    out = Outcome()
    dataset = _dataset(ctx.seed)
    bootstrap = _bootstrap(dataset)
    live_count = int(LIVE_RATE * ctx.seconds)
    changes, kinds = _changes(dataset, DRAIN_CHANGES + live_count, ctx.seed)
    drain, live_changes = changes[:DRAIN_CHANGES], changes[DRAIN_CHANGES:]
    out.properties = {
        "players": PLAYERS,
        "bootstrap_events": len(bootstrap),
        "hot_set": HOT_SET,
        "encoder_cache": DEFAULT_ENCODER_CACHE,
        "hot_share": HOT_SHARE,
        "changes_by_kind": dict(kinds),
        "drain_changes": DRAIN_CHANGES,
        "live_changes": live_count,
        "live_rate_per_s": LIVE_RATE,
    }

    def fresh_feed(name: str):
        path = ctx.work / name
        with open_change_feed(str(path)) as feed:
            for event in bootstrap:
                feed.append(event)
        return path

    feeds = [fresh_feed(f"feed-{index}.jsonl") for index in range(SETUP_REPEATS)]
    # Each earlier state is closed before the next set-up is timed.
    setup_spans: List[Tuple[float, float]] = []
    drains: List[Dict[str, Any]] = []
    live = None
    try:
        for index, feed_path in enumerate(feeds):
            if live is not None:
                live.close()
            start = time.perf_counter()
            live = _Live(dataset, ctx.work, feed_path, bootstrap, index)
            setup_spans.append((start, time.perf_counter()))
            drains.append(_drain(live, drain))
        figures = _follow(live, live_changes)
        stores = [_canonical(live.store)]
    finally:
        if live is not None:
            live.close()
    totals = _totals(drains[-1]["report"], *figures["reports"])

    traced = None
    if tracer is not None:
        traced_live = _Live(dataset, ctx.work, fresh_feed("feed-traced.jsonl"), bootstrap, "traced")
        try:
            with tracer.installed():
                traced_drain = _drain(traced_live, drain)
                traced = _follow(traced_live, live_changes)
            stores.append(_canonical(traced_live.store))
        finally:
            traced_live.close()

    final = RegistryState(dataset.schema, tuple(dataset.currency_constraints), tuple(dataset.cfds))
    for event in bootstrap + changes:
        final.apply(event)
    reference_store = MemoryResultStore()
    with ResolutionClient(RunConfig(options=CONFIG.options, store=reference_store)) as client:
        for _ in client.resolve_stream([final.specification(name) for name in final.entities()]):
            pass
    reference = _canonical(reference_store)
    for label, store in zip(("untraced", "traced"), stores):
        if store != reference:
            differing = sum(1 for key in set(store) | set(reference) if store.get(key) != reference.get(key))
            out.problems.append(f"{label} store differs from a from-scratch resolution in {differing} entries")

    # The followed store equals the reference (checked above), so scoring
    # the reference scores what the consumer stored.
    truth = {entity.name: entity for entity in dataset.entities}
    counts = AccuracyCounts()
    for row in reference_store.results():
        counts = counts.merge(score_entity(truth[row.entity_key], dataset.schema, row.result.resolved_tuple,
                                           claimed_attributes=row.result.deduced_attributes))
    out.failed = sum(1 for stored in stores[0].values() if stored[4])  # failure markers
    out.attempted = totals["applied"]
    if totals["applied"] != len(changes):
        out.problems.append(f"applied {totals['applied']} of {len(changes)} changes")

    setups = [end - start for start, end in setup_spans]
    drain_rates = [one["report"].applied / (one["span"][1] - one["span"][0]) for one in drains]
    latencies = [end - start for start, end in figures["spans"]]
    p50, p95 = p50_p95_ms(latencies)
    out.metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": max(drain_rates),
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
        "goodput_per_s": sum(1 for seconds in latencies if seconds <= LATENCY_LIMIT_S) / figures["wall_s"],
        "f_measure": counts.f_measure,
    }
    out.details = {
        "setup_repeats_s": setups,
        "drain_rates_per_s": drain_rates,
        "live_wall_s": figures["wall_s"],
        "live_busy_s": figures["busy_s"],
        "max_behind": figures["max_behind"],
        "generator_late_s": figures["generator_late_s"],
        "latency_samples": len(figures["spans"]),
        **totals,
    }
    if traced is not None:
        traced_totals = _totals(traced_drain["report"], *traced["reports"])
        out.layers = tracer.metrics(traced_drain["busy_s"] + traced["busy_s"],
                                    drains[-1]["busy_s"] + figures["busy_s"])
        out.layers["cdc.delta_reuse_ratio"] = traced_totals["delta_reuses"] / traced_totals["re_resolved"]
        out.layers["cdc.max_behind"] = float(traced["max_behind"])
    return out
