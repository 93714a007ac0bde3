"""Fault-tolerance overhead and recovery cost on the Fig. 8(c) NBA workload.

Two questions the fault-tolerance stack must answer with numbers:

* **No-fault overhead** — the supervision hooks (fault-plan lookups, the
  per-entity attempt ladder, chunk accounting) sit on the hot path of every
  resolve call.  The fault-free wall-clock of the Fig. 8(c) engine workload
  is measured here and compared against the figure's recorded
  ``engine_workers4`` baseline: the acceptance bar is staying within 2%.
  The comparison is made only when the recorded run is the same workload
  (its ``entities`` and ``workers`` equal this run's); otherwise, as in
  smoke mode, both comparison fields are ``null``.  Cross-run comparisons
  on a shared host are noisy, so both numbers land in the JSON report
  (best-of-*repeats*, the suite's standard estimator) rather than a hard
  assert — the recorded baseline may come from a differently loaded
  machine.
* **Recovery cost** — the same workload with a worker hard-killed mid-run
  (``kill_worker_on_chunk`` via :mod:`repro.faults`): the engine rebuilds the
  pool, retries the lost chunk, and must produce byte-identical results.  The
  report records the recovery wall-clock next to the fault-free one, plus the
  rebuild/retry counters, so the price of one crash is a number, not a guess.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the workload and
worker count: it proves the kill/rebuild/retry path end-to-end without
burning CI minutes.  The module doubles as a standalone script::

    REPRO_BENCH_SMOKE=1 PYTHONPATH=src python benchmarks/bench_fault_recovery.py
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence

from _harness import (
    NBA_BUCKETS,
    RESULTS_DIR,
    nba_scalability_dataset,
    report,
    report_json,
)
from repro.engine import ResolutionEngine
from repro.evaluation import format_table
from repro.evaluation.interaction import ReluctantOracle
from repro.faults import ENV_VAR, FaultPlan
from repro.resolution.framework import ResolverOptions

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: The Fig. 8(c) report whose ``engine_workers4`` wall is the no-fault anchor.
_BASELINE_REPORT = RESULTS_DIR / "fig8c_overall_nba.json"


def _bench_entities(dataset) -> List:
    """The Fig. 8(c) entity mix: up to three entities per size bucket."""
    grouped = dataset.entities_by_size(NBA_BUCKETS)
    entities: List = []
    for bucket in NBA_BUCKETS:
        entities.extend(grouped.get(bucket, [])[:3])
    return entities[:2] if _SMOKE else entities


def _comparable(results) -> List:
    return [
        (r.name, r.valid, r.complete, dict(r.resolved_tuple), r.failure, r.attempts)
        for r in results
    ]


_FAULT_COUNTERS = ("pool_rebuilds", "chunk_retries", "quarantined")


def _timed_run(
    dataset,
    entities: Sequence,
    *,
    workers: int,
    max_rounds: int = 2,
    repeats: int = 3,
    fresh_engine_per_repeat: bool = False,
) -> Dict:
    """Best-of-*repeats* engine wall over the workload; results kept for equality.

    ``fresh_engine_per_repeat`` rebuilds the engine (and its pool) for every
    repeat — the shape the kill scenario needs, since ``kill_worker_on_chunk``
    keys on the engine's own submission counter and therefore fires once per
    engine, not once per repeat.  Fault counters are accumulated per repeat
    (``resolve_many`` starts a fresh statistics snapshot each call).
    """
    options = ResolverOptions(max_rounds=max_rounds, fallback="none")
    wall = float("inf")
    results = None
    counters = dict.fromkeys(_FAULT_COUNTERS, 0.0)

    def one_repeat(engine) -> None:
        nonlocal wall, results
        workload = [
            (dataset.specification_for(entity), ReluctantOracle(entity, max_rounds=max_rounds))
            for entity in entities
        ]
        start = time.perf_counter()
        results = engine.resolve_many(workload)
        wall = min(wall, time.perf_counter() - start)
        stats = engine.statistics.as_dict()
        for key in counters:
            counters[key] += stats.get(key, 0.0)

    if fresh_engine_per_repeat:
        for _ in range(max(1, repeats)):
            with ResolutionEngine(options, workers=workers, chunk_size=1) as engine:
                engine.warm_up()
                one_repeat(engine)
    else:
        with ResolutionEngine(options, workers=workers, chunk_size=1) as engine:
            engine.warm_up()
            for _ in range(max(1, repeats)):
                one_repeat(engine)
    return {"wall_seconds": wall, "results": results, "stats": counters}


def _recorded_baseline() -> Optional[Dict]:
    """The committed Fig. 8(c) ``engine_workers4`` block, or ``None``."""
    if not _BASELINE_REPORT.exists():
        return None
    payload = json.loads(_BASELINE_REPORT.read_text())
    block = payload.get("engine_comparison", {}).get("engine_workers4")
    return block if isinstance(block, dict) and "wall_seconds" in block else None


def no_fault_comparison(wall: float, entities: int, workers: int, recorded: Optional[Dict]) -> Dict:
    """The ``no_fault`` block: this run's wall against the recorded one, like with like.

    The overhead is computed only when *recorded* ran the same number of
    entities on the same number of workers; otherwise the comparison fields
    are ``None``.
    """
    recorded = recorded or {}
    recorded_wall = recorded.get("wall_seconds")
    overhead_pct = None
    if recorded_wall and (recorded.get("entities"), recorded.get("workers")) == (entities, workers):
        overhead_pct = (wall - recorded_wall) / recorded_wall * 100.0
    return {
        "wall_seconds": wall,
        "recorded_fig8c_wall_seconds": recorded_wall,
        "recorded_fig8c_entities": recorded.get("entities"),
        "recorded_fig8c_workers": recorded.get("workers"),
        "overhead_vs_recorded_pct": overhead_pct,
        "within_2pct_of_recorded": None if overhead_pct is None else overhead_pct <= 2.0,
    }


def fault_recovery_table(workers: int = 4, repeats: int = 3) -> Dict:
    """Measure fault-free vs worker-killed walls; return the JSON payload."""
    dataset = nba_scalability_dataset()
    entities = _bench_entities(dataset)

    os.environ.pop(ENV_VAR, None)
    clean = _timed_run(dataset, entities, workers=workers, repeats=repeats)

    # The kill fires once per engine (the chunk counter is engine-local and
    # retried chunks get fresh indices), so every repeat gets a fresh engine
    # and pays exactly one kill + rebuild; the env var reaches forked workers.
    os.environ[ENV_VAR] = FaultPlan(kill_worker_on_chunk=1).encode()
    try:
        killed = _timed_run(
            dataset, entities, workers=workers, repeats=repeats,
            fresh_engine_per_repeat=True,
        )
    finally:
        os.environ.pop(ENV_VAR, None)

    identical = _comparable(clean["results"]) == _comparable(killed["results"])
    recovery_pct = (
        (killed["wall_seconds"] - clean["wall_seconds"]) / clean["wall_seconds"] * 100.0
        if clean["wall_seconds"] > 0
        else 0.0
    )
    return {
        "dataset": dataset.name,
        "entities": float(len(entities)),
        "workers": float(workers),
        "repeats": float(max(1, repeats)),
        "smoke": _SMOKE,
        "results_identical_after_kill": identical,
        "no_fault": no_fault_comparison(
            clean["wall_seconds"], len(entities), workers, _recorded_baseline()
        ),
        "worker_killed": {
            "wall_seconds": killed["wall_seconds"],
            "recovery_overhead_pct": recovery_pct,
            # Counters are summed over the repeats; per-run they divide out.
            "pool_rebuilds_per_run": killed["stats"]["pool_rebuilds"] / float(max(1, repeats)),
            "chunk_retries_per_run": killed["stats"]["chunk_retries"] / float(max(1, repeats)),
            "quarantined": killed["stats"]["quarantined"],
        },
    }


def _render(payload: Dict) -> str:
    no_fault = payload["no_fault"]
    killed = payload["worker_killed"]
    rows = [
        ["no faults", no_fault["wall_seconds"], "-", "-"],
        [
            "worker killed",
            killed["wall_seconds"],
            killed["pool_rebuilds_per_run"],
            killed["chunk_retries_per_run"],
        ],
    ]
    table = format_table(
        ["scenario", "wall (s)", "pool rebuilds", "chunk retries"],
        rows,
        title=(
            f"Fault recovery — {payload['dataset']}"
            f" (workers={payload['workers']:.0f}, {payload['entities']:.0f} entities)"
        ),
    )
    if no_fault["overhead_vs_recorded_pct"] is not None:
        table += (
            f"\nno-fault wall vs recorded fig8c engine baseline: "
            f"{no_fault['overhead_vs_recorded_pct']:+.2f}%"
            f" (recorded {no_fault['recorded_fig8c_wall_seconds']:.3f}s)"
        )
    elif no_fault["recorded_fig8c_wall_seconds"] is not None:
        table += (
            f"\nno-fault wall not compared: the recorded fig8c engine run is a different workload"
            f" ({no_fault['recorded_fig8c_entities']:.0f} entities on"
            f" {no_fault['recorded_fig8c_workers']:.0f} workers)"
        )
    table += f"\nrecovery overhead for one killed worker: {killed['recovery_overhead_pct']:+.1f}%"
    if not payload["results_identical_after_kill"]:  # pragma: no cover - defensive
        table += "\nWARNING: results diverged after the worker kill!"
    return table


def run_fault_recovery() -> Dict:
    """Execute the benchmark (honouring smoke mode) and persist its reports."""
    if _SMOKE:
        payload = fault_recovery_table(workers=2, repeats=1)
    else:
        payload = fault_recovery_table()
    report_json("fault_recovery", payload)
    report("fault_recovery", _render(payload))
    return payload


def bench_fault_recovery(benchmark) -> None:
    """Fault-free vs worker-killed wall-clock on the Fig. 8(c) workload."""
    payload = run_fault_recovery()
    assert payload["results_identical_after_kill"]
    assert payload["worker_killed"]["pool_rebuilds_per_run"] >= 1
    dataset = nba_scalability_dataset()
    entities = _bench_entities(dataset)[:2]
    benchmark(lambda: _timed_run(dataset, entities, workers=2, repeats=1))


if __name__ == "__main__":
    run_fault_recovery()
