"""``batch``: sequential interactive resolution of a skewed Person mix.

A seeded pool of Person entities, mostly small with a tail of large ones
(the Fig. 8(d) size sweep), is resolved in order through
``ResolutionClient.resolve_stream`` on a sequential engine.  A
``ReluctantOracle`` answers up to two suggestion rounds per entity and the
default ``pick`` fallback fills what is still open; there is no store.
Whole passes over the pool repeat until the measured window is used, so
every run sees the same size mix.  Each entity's time in a pass is scaled
by the host probe's reading around it (see ``common.HostProbe``), and
every figure is built from each entity's median scaled time over the
passes.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Dict, List, Tuple

from common import SETUP_REPEATS, Context, HostProbe, Outcome, p50_p95_ms
from layers import Tracer
from repro.api import ResolutionClient, RunConfig
from repro.datasets import PersonConfig, generate_person_dataset
from repro.evaluation.interaction import ReluctantOracle
from repro.evaluation.metrics import AccuracyCounts, score_entity
from repro.resolution.framework import ResolverOptions

#: (tuples per entity, entities per pass): mostly small, a tail of large ones.
SIZE_MIX = ((4, 150), (12, 50), (24, 10), (48, 2))
#: Suggestion rounds the simulated user answers per entity.
ORACLE_ROUNDS = 2
#: Resolver defaults: ``pick`` fallback, rounds bounded by the oracle.
CONFIG = RunConfig(options=ResolverOptions(), workers=1)
#: An entity resolved within this many seconds counts toward goodput.
LATENCY_LIMIT_S = 1.0
#: Each size class is drawn from this many times its count of entities,
#: generated from a fixed seed.
POPULATION_FACTOR = 3
POPULATION_SEED = 1000


def _pool(seed: int) -> List[Tuple[str, Any, Any]]:
    """(key, entity, dataset) for every entity of one pass.

    Each size class is drawn from a population generated with a fixed
    seed, so every run faces the same constraints; ``seed`` picks the
    entities and their order.
    """
    rng = random.Random(seed)
    pool = []
    for tuples, count in SIZE_MIX:
        dataset = generate_person_dataset(
            PersonConfig(
                num_entities=count * POPULATION_FACTOR,
                tuples_per_entity=tuples,
                versions_per_entity=min(24, max(6, tuples // 6)),
                seed=POPULATION_SEED + tuples,
            )
        )
        for entity in rng.sample(dataset.entities, count):
            pool.append((f"t{tuples}/{entity.name}", entity, dataset))
    rng.shuffle(pool)
    return pool


def _setup(pool) -> Tuple[ResolutionClient, List[Tuple[str, Any]]]:
    """Build the pass's specifications and open a client holding an engine lease."""
    specs = [(key, dataset.specification_for(entity)) for key, entity, dataset in pool]
    client = ResolutionClient(CONFIG)
    for _ in client.resolve_stream([]):  # takes the engine lease
        pass
    return client, specs


def _one_pass(client: ResolutionClient, specs, entities, probe: HostProbe) -> Tuple[List[Any], List[Tuple[float, float]]]:
    """Resolve the pass once: its results and each entity's (start, end) perf_counter."""

    def oracle(key, _spec):
        return ReluctantOracle(entities[key], max_rounds=ORACLE_ROUNDS)

    results, spans = [], []
    stream = client.resolve_stream(specs, oracle_factory=oracle)
    tick = time.perf_counter()
    for result in stream:
        spans.append((tick, time.perf_counter()))
        results.append(result)
        probe.sample()  # between entities, outside their spans
        tick = time.perf_counter()
    return results, spans


def _tuples(results) -> List[Dict[str, Any]]:
    return [dict(result.resolved_tuple) for result in results]


def run(ctx: Context, tracer: Tracer = None) -> Outcome:
    out = Outcome()
    pool = _pool(ctx.seed)
    entities = {key: entity for key, entity, _ in pool}
    sizes = sorted(entity.size() for entity in entities.values())
    out.properties = {
        "entities_per_pass": len(pool),
        "tuples_per_entity_p50": statistics.median(sizes),
        "tuples_per_entity_max": sizes[-1],
        "size_mix": {f"t{tuples}": count for tuples, count in SIZE_MIX},
        "oracle_rounds": ORACLE_ROUNDS,
    }

    # Each earlier client is closed before the next set-up is timed.
    setup_spans: List[Tuple[float, float]] = []
    passes: List[List[Tuple[float, float]]] = []
    pass_walls: List[float] = []
    probe = HostProbe()
    client = first = traced = None
    try:
        for _ in range(SETUP_REPEATS):
            if client is not None:
                client.close()
            start = time.perf_counter()
            client, specs = _setup(pool)
            setup_spans.append((start, time.perf_counter()))

        start = time.perf_counter()
        while time.perf_counter() - start < ctx.seconds:
            results, spans = _one_pass(client, specs, entities, probe)
            passes.append(spans)
            pass_walls.append(spans[-1][1] - spans[0][0])
            if first is None:
                first = results
            elif _tuples(results) != _tuples(first):
                out.problems.append(f"pass {len(passes)} resolved differently from pass 1")
            out.attempted += len(results)
            out.failed += sum(1 for result in results if result.failure)

        if tracer is not None:
            begun = time.perf_counter()
            with tracer.installed():
                traced, _ = _one_pass(client, specs, entities, probe)
            traced_wall = time.perf_counter() - begun
    finally:
        if client is not None:
            client.close()

    def scaled(span: Tuple[float, float]) -> float:
        return (span[1] - span[0]) / probe.factor(*span)

    counts = AccuracyCounts()
    for (_, entity, dataset), result in zip(pool, first):
        counts = counts.merge(
            score_entity(entity, dataset.schema, result.resolved_tuple, claimed_attributes=result.deduced_attributes)
        )
        if set(result.resolved_tuple) != set(dataset.schema.attribute_names):
            out.problems.append(f"{result.name}: resolved tuple does not cover the schema")
    typical = [statistics.median(scaled(span) for span in spans) for spans in zip(*passes)]
    raw = [statistics.median(end - start for start, end in spans) for spans in zip(*passes)]
    p50, p95 = p50_p95_ms(typical)
    out.metrics = {
        "setup_s": statistics.median(scaled(span) for span in setup_spans),
        "throughput_per_s": len(typical) / sum(typical),
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
        "goodput_per_s": sum(1 for seconds in typical if seconds <= LATENCY_LIMIT_S) / sum(typical),
        "f_measure": counts.f_measure,
    }
    rounds_per_entity = sum(result.interaction_rounds for result in first) / len(first)
    out.details = {
        "setup_repeats_s": [scaled(span) for span in setup_spans],
        "pass_walls_s": pass_walls,
        "pass_host_factors": [probe.factor(spans[0][0], spans[-1][1]) for spans in passes],
        "raw_throughput_per_s": len(raw) / sum(raw),
        "latency_samples": len(typical),
        "rounds_per_entity": rounds_per_entity,
        "accuracy": {"deduced": counts.deduced, "correct": counts.correct, "conflicting": counts.conflicting},
    }
    if traced is not None:
        if _tuples(traced) != _tuples(first):
            out.problems.append("traced pass resolved differently from the untraced passes")
        out.layers = tracer.metrics(traced_wall, statistics.median(pass_walls))
        out.layers["resolution.rounds_per_entity"] = rounds_per_entity
    return out
