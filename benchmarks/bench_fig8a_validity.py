"""Fig. 8(a): elapsed time of validity checking (IsValid) vs. entity size.

The paper reports the average IsValid time per entity-size bucket for NBA
(14 attributes, |Σ|=54, |Γ|=58) and Person (|Σ|=983, |Γ|=1000, entities up to
10k tuples on a C++/MiniSAT stack).  The reproduction measures the same sweep
on the synthetic rebuilds at pure-Python scale; the expected *shape* is a
moderate growth with the number of tuples, with the encoding (not the SAT
call) dominating.
"""

from __future__ import annotations

from collections import defaultdict

from _harness import (
    NBA_BUCKETS,
    nba_bucket_specs,
    person_size_specs,
    report,
    report_json,
    time_validity,
)
from repro.evaluation import format_table


def bench_fig8a_validity_checking(benchmark) -> None:
    """Measure IsValid across NBA size buckets and the Person size sweep."""
    rows = []

    nba_times = defaultdict(list)
    nba_clauses = defaultdict(list)
    largest_spec = None
    for bucket, entity, spec in nba_bucket_specs():
        seconds, stats = time_validity(spec)
        nba_times[bucket].append(seconds)
        nba_clauses[bucket].append(stats["clauses"])
        largest_spec = spec
    for bucket in NBA_BUCKETS:
        if not nba_times[bucket]:
            continue
        rows.append(
            [
                f"NBA {bucket[0]}-{bucket[1]} tuples",
                len(nba_times[bucket]),
                sum(nba_times[bucket]) / len(nba_times[bucket]) * 1000.0,
                sum(nba_clauses[bucket]) / len(nba_clauses[bucket]),
            ]
        )

    person_times = defaultdict(list)
    person_clauses = defaultdict(list)
    for size, entity, spec in person_size_specs():
        seconds, stats = time_validity(spec)
        person_times[size].append(seconds)
        person_clauses[size].append(stats["clauses"])
        largest_spec = spec
    for size, values in sorted(person_times.items()):
        rows.append(
            [
                f"Person ~{size} tuples",
                len(values),
                sum(values) / len(values) * 1000.0,
                sum(person_clauses[size]) / len(person_clauses[size]),
            ]
        )

    table = format_table(
        ["workload", "entities", "mean IsValid time (ms)", "mean |Φ(Se)| clauses"],
        rows,
        title="Fig. 8(a) — validity checking time vs. entity size",
    )
    report("fig8a_validity", table)
    report_json(
        "fig8a_validity",
        {
            "buckets": [
                {"workload": workload, "entities": entities, "mean_isvalid_ms": ms, "mean_clauses": clauses}
                for workload, entities, ms, clauses in rows
            ]
        },
    )

    # The pytest-benchmark timing is taken on the largest specification seen.
    benchmark(lambda: time_validity(largest_spec))
