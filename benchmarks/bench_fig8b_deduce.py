"""Fig. 8(b): elapsed time of DeduceOrder vs. NaiveDeduce.

The paper's headline here is the gap between the two: ``DeduceOrder`` (one
propagation pass) stays in tens of milliseconds while ``NaiveDeduce`` (one SAT
call per ordering variable) is orders of magnitude slower and becomes
unusable on large entities.  The same gap must show on the synthetic rebuild.
"""

from __future__ import annotations

from collections import defaultdict

from _harness import (
    NBA_BUCKETS,
    nba_bucket_specs,
    person_size_specs,
    report,
    report_json,
    time_deduction,
)
from repro.evaluation import format_table


def bench_fig8b_deduce_vs_naive(benchmark) -> None:
    """Measure DeduceOrder and NaiveDeduce across the scalability workloads."""
    rows = []
    largest_spec = None

    fast = defaultdict(list)
    slow = defaultdict(list)
    for bucket, entity, spec in nba_bucket_specs(limit_per_bucket=2):
        fast[bucket].append(time_deduction(spec, naive=False))
        slow[bucket].append(time_deduction(spec, naive=True))
        largest_spec = spec
    for bucket in NBA_BUCKETS:
        if not fast[bucket]:
            continue
        rows.append(
            [
                f"NBA {bucket[0]}-{bucket[1]} tuples",
                sum(fast[bucket]) / len(fast[bucket]) * 1000.0,
                sum(slow[bucket]) / len(slow[bucket]) * 1000.0,
            ]
        )

    person_fast = defaultdict(list)
    person_slow = defaultdict(list)
    for size, entity, spec in person_size_specs(limit_per_size=1):
        person_fast[size].append(time_deduction(spec, naive=False))
        person_slow[size].append(time_deduction(spec, naive=True))
        largest_spec = spec
    for size in sorted(person_fast):
        rows.append(
            [
                f"Person ~{size} tuples",
                sum(person_fast[size]) / len(person_fast[size]) * 1000.0,
                sum(person_slow[size]) / len(person_slow[size]) * 1000.0,
            ]
        )

    table = format_table(
        ["workload", "DeduceOrder (ms)", "NaiveDeduce (ms, pair-capped)"],
        rows,
        title="Fig. 8(b) — deducing true values: DeduceOrder vs NaiveDeduce",
    )
    report("fig8b_deduce", table)
    report_json(
        "fig8b_deduce",
        {
            "buckets": [
                {"workload": workload, "deduce_order_ms": fast_ms, "naive_deduce_ms": slow_ms}
                for workload, fast_ms, slow_ms in rows
            ]
        },
    )

    benchmark(lambda: time_deduction(largest_spec, naive=False))
