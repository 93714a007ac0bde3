"""Ablation (ours): solver substrate choices in ``Suggest``.

Two design choices replace external tools from the paper's experiments: the
exact group-MaxSAT used by ``GetSug`` (vs. a greedy pass) and the exact
maximum clique (vs. a greedy heuristic).  This benchmark measures the runtime
impact of both on the suggestion pipeline of a mid-sized Person entity.  (The
CDCL solver is the package's one SAT solver; ``tests/solvers/test_sat.py``
cross-checks its verdicts against the DPLL test reference.)
"""

from __future__ import annotations

import time

from _harness import person_accuracy_dataset, report, report_json
from repro.encoding import IncrementalEncoder
from repro.evaluation import format_table
from repro.resolution import deduce_order, extract_true_values, suggest
from repro.resolution.suggest import SuggestOptions


def bench_ablation_solver_choices(benchmark) -> None:
    """Exact vs greedy clique/MaxSAT in Suggest."""
    rows = []
    accuracy_dataset = person_accuracy_dataset()
    entity = max(accuracy_dataset.entities, key=lambda e: e.size())
    spec = accuracy_dataset.specification_for(entity)
    encoder = IncrementalEncoder(spec)
    deduced = deduce_order(encoder)
    known = extract_true_values(spec, deduced)
    for label, options in (
        ("exact", SuggestOptions(clique_method="exact", maxsat_strategy="exact")),
        ("greedy", SuggestOptions(clique_method="greedy", maxsat_strategy="greedy")),
    ):
        start = time.perf_counter()
        suggestion = suggest(encoder, deduced, known, options)
        seconds = time.perf_counter() - start
        rows.append([f"Suggest ({len(suggestion.attributes)} attrs asked)", label, seconds * 1000.0])

    table = format_table(
        ["stage", "variant", "time (ms)"],
        rows,
        title="Ablation — solver substrate choices",
    )
    report("ablation_solvers", table)
    report_json(
        "ablation_solvers",
        {"rows": [{"stage": stage, "variant": variant, "ms": ms} for stage, variant, ms in rows]},
    )

    benchmark(lambda: suggest(encoder, deduced, known))
