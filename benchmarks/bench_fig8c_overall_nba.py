"""Fig. 8(c): overall per-entity resolution time on NBA, broken down by phase.

Each bar of the paper's figure splits the per-round time into validity
checking, true-value deduction and suggestion generation; in the paper,
validity checking (the SAT call on Φ(S_e)) dominates.  The same breakdown is
reported here per entity-size bucket, with the encoding of Φ (the full
encode, then each round's delta) in a column of its own rather than inside
validity checking: timed apart, encoding is the largest phase here.
"""

from __future__ import annotations

from collections import defaultdict

from _harness import (
    NBA_BUCKETS,
    nba_scalability_dataset,
    report,
    report_engine_summary,
    time_overall,
)
from repro.evaluation import format_table


def bench_fig8c_overall_time_nba(benchmark) -> None:
    """Per-phase resolution time for NBA entities, bucketed by size.

    On top of the paper's phase breakdown, the JSON report records the
    engine acceptance measurement on the same entity set: one sequential
    resolver vs. ``ResolutionEngine(workers=4)`` wall-clock (with
    compile-reuse counters).
    """
    dataset = nba_scalability_dataset()
    grouped = dataset.entities_by_size(NBA_BUCKETS)
    rows = []
    bench_entities = []
    largest_entity = None
    for bucket in NBA_BUCKETS:
        entities = grouped.get(bucket, [])[:3]
        if not entities:
            continue
        bench_entities.extend(entities)
        totals = defaultdict(float)
        for entity in entities:
            for phase, seconds in time_overall(dataset, entity).items():
                totals[phase] += seconds
            largest_entity = entity
        count = len(entities)
        rows.append(
            [
                f"{bucket[0]}-{bucket[1]} tuples",
                count,
                totals["encode"] / count * 1000.0,
                totals["validity"] / count * 1000.0,
                totals["deduce"] / count * 1000.0,
                totals["suggest"] / count * 1000.0,
            ]
        )
    table = format_table(
        ["bucket", "entities", "encode (ms)", "validity (ms)", "deduce (ms)", "suggest (ms)"],
        rows,
        title="Fig. 8(c) — NBA: overall time per entity, by phase",
    )

    table += report_engine_summary("fig8c_overall_nba", dataset, bench_entities)
    report("fig8c_overall_nba", table)

    benchmark(lambda: time_overall(dataset, largest_entity))
