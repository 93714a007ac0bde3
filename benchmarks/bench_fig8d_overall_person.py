"""Fig. 8(d): overall per-entity resolution time on Person, broken down by phase.

Person entities grow much larger than NBA ones (the paper scales them to 10k
tuples); the figure shows the same validity/deduce/suggest breakdown as
Fig. 8(c), with validity checking again dominating as the entity grows.  As
in Fig. 8(c), encoding Φ has a column of its own, and it is the largest
phase here.
"""

from __future__ import annotations

from collections import defaultdict

from _harness import (
    PERSON_SIZES,
    person_scalability_dataset,
    report,
    report_engine_summary,
    time_overall,
)
from repro.evaluation import format_table


def bench_fig8d_overall_time_person(benchmark) -> None:
    """Per-phase resolution time for Person entities of growing size.

    As for Fig. 8(c), the JSON report additionally records the engine
    (sequential vs. parallel) measurement, here on the mid-size Person
    dataset.
    """
    rows = []
    largest = None
    for size in PERSON_SIZES:
        dataset = person_scalability_dataset(size)
        totals = defaultdict(float)
        entities = dataset.entities[:2]
        for entity in entities:
            for phase, seconds in time_overall(dataset, entity).items():
                totals[phase] += seconds
            largest = (dataset, entity)
        count = len(entities)
        rows.append(
            [
                f"~{size} tuples",
                count,
                totals["encode"] / count * 1000.0,
                totals["validity"] / count * 1000.0,
                totals["deduce"] / count * 1000.0,
                totals["suggest"] / count * 1000.0,
            ]
        )
    table = format_table(
        ["entity size", "entities", "encode (ms)", "validity (ms)", "deduce (ms)", "suggest (ms)"],
        rows,
        title="Fig. 8(d) — Person: overall time per entity, by phase",
    )

    engine_dataset = person_scalability_dataset(PERSON_SIZES[1])
    table += report_engine_summary("fig8d_overall_person", engine_dataset, engine_dataset.entities)
    report("fig8d_overall_person", table)

    dataset, entity = largest
    benchmark(lambda: time_overall(dataset, entity))
