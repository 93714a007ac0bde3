"""``serve``: open-loop NBA requests into a 2-worker ``ServingCluster``.

One asyncio loop submits requests on a fixed schedule, whether or not
earlier ones have finished (an open loop of independent users), to a
cluster of two worker processes sharing one SQLite result store.  Each
request is an NBA entity resolved at the command-line defaults (no
interaction rounds, no fallback); a seeded share of requests repeat an
earlier entity and can be answered from the store.

* Nominal phase, the first two thirds of the window at about a quarter of
  the cluster's capacity: latency, timed from each request's scheduled
  arrival.  Each percentile is the best of WINDOWS equal windows of it:
  slowdowns from other tenants of a shared host only ever add time.
* Overload phase, the last third at about twice capacity: completions,
  goodput within the latency limit, and shedding.  The admission queue is
  shallow, so accepted requests finish well inside the limit.

Every timing but the traced run's is scaled by ``common.HostProbe``,
sampled by a task on the load generator's loop.  The workers' own threads
are out of its reach, but the generator's process wanders over the same
vCPUs they run on.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import statistics
import time
from collections import Counter
from dataclasses import replace
from typing import Any, Dict, List, Tuple

from common import SETUP_REPEATS, Context, HostProbe, Outcome, p50_p95_ms
from layers import Tracer
from repro.api import RunConfig
from repro.datasets import NBAConfig, generate_nba_dataset
from repro.evaluation.metrics import AccuracyCounts, score_entity
from repro.resolution.framework import ResolverOptions
from repro.serving import ResolutionServer, ResolveRequest, ServingCluster, SpecificationBuilder
from repro.serving.wire import decode_response, encode_response

WORKERS = 2
#: Requests per second in each phase.  The two workers complete 150 to 200
#: requests/s of this mix, depending on how busy the host is; at half of
#: that, the nominal p95 spread past its bound from run to run.
NOMINAL_RATE = 40.0
OVERLOAD_RATE = 350.0
#: Share of the window the nominal phase takes; the overload phase has the rest.
NOMINAL_SHARE = 2 / 3
#: Share of requests that repeat an entity requested earlier in the run.
REPEAT_SHARE = 0.3
#: Admission control's global in-flight cap.
QUEUE_DEPTH = 8
#: A response within this many seconds of its scheduled arrival is goodput.
LATENCY_LIMIT_S = 0.5
#: Requests are drawn by the seed from an NBA population generated with a
#: fixed seed, so every run faces the same teams and constraints.
POPULATION = 5000
POPULATION_SEED = 17
#: Equal windows of the nominal phase that each latency percentile is the best of.
WINDOWS = 4
OPTIONS = ResolverOptions(max_rounds=0, fallback="none")


def _requests(seed: int, count: int):
    """*count* requests; REPEAT_SHARE of them repeat an earlier entity."""
    rng = random.Random(seed)
    fresh = count - int(count * REPEAT_SHARE)
    dataset = generate_nba_dataset(NBAConfig(num_players=POPULATION, seed=POPULATION_SEED))
    repeats = set(rng.sample(range(1, count), count - fresh))
    pool = iter(rng.sample(dataset.entities, fresh))
    seen: List[Any] = []
    requests = []
    for index in range(count):
        if index in repeats:
            entity = rng.choice(seen)
        else:
            entity = next(pool)
            seen.append(entity)
        requests.append(ResolveRequest(entity=entity.name, rows=tuple(dict(row) for row in entity.rows), id=f"r{index}"))
    return dataset, requests


def _cluster(builder, path) -> ServingCluster:
    return ServingCluster(builder, RunConfig(options=OPTIONS), workers=WORKERS,
                          store=str(path), max_queue_depth=QUEUE_DEPTH)


async def _phase(cluster: ServingCluster, requests, rate: float) -> Dict[str, Any]:
    """Submit *requests* at *rate* per second; wait for every answer."""
    latencies: List[float] = []
    dues: List[float] = []
    finished: List[float] = []
    after_submit: List[float] = []
    lines: Dict[str, str] = {}
    outcomes: Counter = Counter()
    late = 0.0

    async def fire(request: ResolveRequest, due: float) -> None:
        status, outcome = await cluster.submit_request(request)
        outcomes[status] += 1
        if status == "accepted":
            returned = time.perf_counter()
            lines[request.id] = await outcome
            done = time.perf_counter()
            latencies.append(done - due)
            dues.append(due)
            finished.append(done)
            after_submit.append(done - returned)

    tasks = []
    start = time.perf_counter()
    for index, request in enumerate(requests):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late = max(late, time.perf_counter() - due)
        tasks.append(asyncio.create_task(fire(request, due)))
    await asyncio.gather(*tasks)
    return {
        "start": start,
        "seconds": len(requests) / rate,
        "wall": time.perf_counter() - start,
        "offered": len(requests),
        "accepted": outcomes["accepted"],
        "shed": outcomes["shed"],
        "latencies": latencies,
        "due": dues,
        "finished": finished,
        "after_submit_s": sum(after_submit),
        "lines": lines,
        "late_s": late,
    }


def _median_per_second(phase: Dict[str, Any], limit: float, probe: HostProbe) -> float:
    """Median over the phase's whole scheduled seconds of responses that
    finished in that second within *limit* of their arrival, scaled."""
    counts = [0] * int(phase["seconds"])
    for done, latency in zip(phase["finished"], phase["latencies"]):
        slot = int(done - phase["start"])
        if slot < len(counts) and latency <= limit:
            counts[slot] += 1
    start = phase["start"]
    return statistics.median(count * probe.factor(start + slot, start + slot + 1) for slot, count in enumerate(counts))


def _windowed_p50_p95_ms(phase: Dict[str, Any], probe: HostProbe) -> Tuple[float, float]:
    """Lowest over WINDOWS windows (by scheduled arrival) of each window's scaled p50 and p95."""
    windows: List[List[float]] = [[] for _ in range(WINDOWS)]
    width = phase["seconds"] / WINDOWS
    for due, done in zip(phase["due"], phase["finished"]):
        windows[min(int((due - phase["start"]) / width), WINDOWS - 1)].append((done - due) / probe.factor(due, done))
    cuts = [p50_p95_ms(window) for window in windows]
    return min(p50 for p50, _ in cuts), min(p95 for _, p95 in cuts)


async def _probing(probe: HostProbe) -> None:
    while True:
        probe.sample()
        await asyncio.sleep(HostProbe.INTERVAL)


async def _measure(cluster: ServingCluster, nominal, overload) -> Dict[str, Any]:
    figures = {"nominal": await _phase(cluster, nominal, NOMINAL_RATE),
               "overload": await _phase(cluster, overload, OVERLOAD_RATE)}
    figures["stats"] = await cluster.stats()
    return figures


async def _reference(builder, requests, wanted) -> Dict[str, str]:
    """What one in-process ResolutionServer answers to each wanted request."""
    by_entity: Dict[str, Any] = {}
    expected: Dict[str, str] = {}
    async with ResolutionServer(builder, options=OPTIONS, workers=1) as server:
        for request in requests:
            if request.id not in wanted:
                continue
            if request.entity not in by_entity:
                by_entity[request.entity] = await server.resolve_one(request)
            expected[request.id] = encode_response(replace(by_entity[request.entity], id=request.id))
    return expected


async def _run(ctx: Context, tracer: Tracer, out: Outcome) -> None:
    nominal_s = ctx.seconds * NOMINAL_SHARE
    nominal_count, overload_count = int(NOMINAL_RATE * nominal_s), int(OVERLOAD_RATE * (ctx.seconds - nominal_s))
    dataset, requests = _requests(ctx.seed, nominal_count + overload_count)
    nominal, overload = requests[:nominal_count], requests[nominal_count:]
    builder = SpecificationBuilder(dataset.schema, dataset.currency_constraints, dataset.cfds)
    sizes = sorted(len(request.rows) for request in requests)
    out.properties = {
        "repeat_share": REPEAT_SHARE,
        "distinct_entities": len({request.entity for request in requests}),
        "rows_per_request_p50": statistics.median(sizes),
        "rows_per_request_max": sizes[-1],
        "nominal_rate_per_s": NOMINAL_RATE,
        "overload_rate_per_s": OVERLOAD_RATE,
        "queue_depth": QUEUE_DEPTH,
        "workers": WORKERS,
        "latency_limit_s": LATENCY_LIMIT_S,
    }

    # Each earlier cluster is shut down before the next start is timed.
    setup_spans: List[Tuple[float, float]] = []
    probe = HostProbe()
    probing = asyncio.create_task(_probing(probe))
    cluster = None
    try:
        for index in range(SETUP_REPEATS):
            if cluster is not None:
                await cluster.shutdown()
            start = time.perf_counter()
            cluster = _cluster(builder, ctx.work / f"store-{index}.db")
            await cluster.start()
            setup_spans.append((start, time.perf_counter()))
        figures = await _measure(cluster, nominal, overload)
    finally:
        probing.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await probing
        if cluster is not None:
            await cluster.shutdown()
    runs = [figures]

    if tracer is not None:
        traced_cluster = _cluster(builder, ctx.work / "store-traced.db")
        await traced_cluster.start()  # workers fork before any wrapper exists
        try:
            with tracer.installed():
                traced = await _measure(traced_cluster, nominal, overload)
        finally:
            await traced_cluster.shutdown()
        runs.append(traced)

    wanted = {rid for run in runs for phase in ("nominal", "overload") for rid in run[phase]["lines"]}
    expected = await _reference(builder, requests, wanted)
    truth = {entity.name: entity for entity in dataset.entities}
    scored: Dict[str, Any] = {}
    for label, run in zip(("untraced", "traced"), runs):
        for phase in ("nominal", "overload"):
            for rid, line in run[phase]["lines"].items():
                response = decode_response(line)
                if response.error or response.failure:
                    out.failed += 1
                if line != expected[rid]:
                    out.problems.append(f"{label} {phase} response {rid} differs from a single in-process server")
                scored.setdefault(response.entity, response)
    counts = AccuracyCounts()
    for entity, response in scored.items():
        claimed = [attribute for attribute, value in response.resolved.items() if value is not None]
        counts = counts.merge(score_entity(truth[entity], dataset.schema, response.resolved, claimed))

    out.attempted = len(requests)
    base, heavy = figures["nominal"], figures["overload"]
    p50, p95 = _windowed_p50_p95_ms(base, probe)
    setups = [(end - start) / probe.factor(start, end) for start, end in setup_spans]
    out.metrics = {
        "setup_s": statistics.median(setups),
        # Medians over one-second slots, so one stall is not averaged in.
        "throughput_per_s": _median_per_second(heavy, float("inf"), probe),
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
        "goodput_per_s": _median_per_second(heavy, LATENCY_LIMIT_S, probe),
        "f_measure": counts.f_measure,
    }
    out.details = {
        "setup_repeats_s": setups,
        "host_factor_nominal": probe.factor(base["start"], base["start"] + base["wall"]),
        "host_factor_overload": probe.factor(heavy["start"], heavy["start"] + heavy["wall"]),
        "shed_fraction": heavy["shed"] / heavy["offered"],
        "nominal_shed": base["shed"],
        "latency_samples": len(base["latencies"]),
        **{f"{phase}_{key}": figures[phase][key] for phase in ("nominal", "overload")
           for key in ("wall", "offered", "accepted", "shed", "late_s")},
        "scored_entities": len(scored),
    }
    if tracer is not None:
        traced = runs[1]
        phases = (traced["nominal"], traced["overload"])
        shards = traced["stats"]["shards"]
        servers = [shard.get("server", {}) for shard in shards]
        queue = sum(server.get("queue_seconds", 0.0) for server in servers)
        resolve = sum(server.get("resolve_seconds", 0.0) for server in servers)
        hits = sum(server.get("store", {}).get("hits", 0) for server in servers)
        misses = sum(server.get("store", {}).get("misses", 0) for server in servers)
        routed = [shard["entities"] for shard in shards]
        out.layers = tracer.metrics(sum(p["wall"] for p in phases), base["wall"] + heavy["wall"])
        out.layers.update({
            "serving.frontdoor_s": sum(p["after_submit_s"] for p in phases) - queue - resolve,
            "serving.worker_queue_s": queue,
            "serving.worker_resolve_s": resolve,
            "serving.routed_skew": max(routed) / statistics.mean(routed),
            "serving.generator_late_ms": max(p["late_s"] for p in phases) * 1000.0,
            "serving.shed_fraction": traced["overload"]["shed"] / traced["overload"]["offered"],
            "api.store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        })


def run(ctx: Context, tracer: Tracer = None) -> Outcome:
    out = Outcome()
    asyncio.run(_run(ctx, tracer, out))
    return out
