"""Ablation (ours): naive vs. projected instantiation of Ω(S_e).

The paper's cost model enumerates all ordered tuple pairs per constraint
(O(|Σ|·|I_t|²)); the library's default "projected" mode enumerates distinct
attribute projections instead, which produces the same deduplicated constraint
set but is insensitive to duplicate tuples.  This ablation quantifies the gap
on Person entities of growing size.
"""

from __future__ import annotations

import time

from _harness import PERSON_SIZES, person_scalability_dataset, report, report_json
from repro.encoding import IncrementalEncoder, InstantiationOptions
from repro.evaluation import format_table


def _encode_seconds(spec, mode: str) -> tuple[float, int]:
    """Seconds of one full encode (the encoder's delta state included) and its clause count."""
    start = time.perf_counter()
    encoder = IncrementalEncoder(spec, InstantiationOptions(mode=mode))
    return time.perf_counter() - start, encoder.statistics()["initial_clauses"]


def bench_ablation_instantiation_mode(benchmark) -> None:
    """Encoding time and CNF size: naive vs projected instantiation."""
    rows = []
    largest_spec = None
    for size in PERSON_SIZES:
        dataset = person_scalability_dataset(size)
        entity = dataset.entities[0]
        spec = dataset.specification_for(entity)
        projected_seconds, projected_clauses = _encode_seconds(spec, "projected")
        naive_seconds, naive_clauses = _encode_seconds(spec, "naive")
        rows.append(
            [
                f"~{size} tuples",
                projected_seconds * 1000.0,
                naive_seconds * 1000.0,
                projected_clauses,
                naive_clauses,
            ]
        )
        largest_spec = spec
    table = format_table(
        ["entity size", "projected (ms)", "naive (ms)", "clauses (projected)", "clauses (naive)"],
        rows,
        title="Ablation — instantiation mode (projected vs naive tuple-pair enumeration)",
    )
    report("ablation_encoding", table)
    report_json(
        "ablation_encoding",
        {
            "sizes": [
                {
                    "entity_size": size,
                    "projected_ms": projected_ms,
                    "naive_ms": naive_ms,
                    "projected_clauses": projected_clauses,
                    "naive_clauses": naive_clauses,
                }
                for size, projected_ms, naive_ms, projected_clauses, naive_clauses in rows
            ]
        },
    )

    benchmark(lambda: IncrementalEncoder(largest_spec, InstantiationOptions(mode="projected")))
