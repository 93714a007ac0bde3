"""Fault-tolerance overhead and recovery cost on the Fig. 8(c) NBA workload.

Two questions the fault-tolerance stack must answer with numbers:

* **No-fault overhead** — the supervision hooks (fault-plan lookups, the
  per-entity attempt ladder, chunk accounting) sit on the hot path of every
  resolve call.  The fault-free wall-clock of the Fig. 8(c) engine workload
  is measured here and compared against the figure's recorded
  ``engine_workers4`` baseline: the acceptance bar is staying within 2%.
  The comparison is made only when the recorded run is the same workload
  measured the same way: its ``entities`` and ``workers`` equal this run's
  and it says it ran each repeat on a fresh engine
  (``fresh_engine_per_repeat``).  Otherwise both comparison fields are
  ``null`` and ``not_compared_because`` says why.  The Fig. 8(c) report
  times its repeats on one warm engine, so the full-mode report leaves the
  overhead ``null`` and lists the recorded wall alone; a best on a warm
  engine against a best on fresh ones moves with the pool's state, not with
  the hooks.  Cross-run comparisons on a shared host are noisy, so both
  numbers land in the JSON report (best-of-*repeats*, the suite's standard
  estimator) rather than a hard assert — the recorded baseline may come
  from a differently loaded machine.
* **Recovery cost** — the same workload with a worker hard-killed mid-run
  (``kill_worker_on_chunk`` via :mod:`repro.faults`): the engine rebuilds the
  pool, retries the lost chunk, and must produce byte-identical results.  The
  report records the recovery wall-clock next to the fault-free one, plus the
  rebuild/retry counters, so the price of one crash is a number, not a guess.
  Both arms run like with like: every repeat gets a fresh, warmed engine, and
  the repeats alternate (clean, killed, clean, …), so host drift lands on
  both.  Each repeat's wall is in the report, and the spread is printed next
  to the overhead.

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


def _one_run(dataset, entities: Sequence, *, workers: int, killed: bool, max_rounds: int = 2) -> Dict:
    """One repeat on a fresh, warmed engine: its wall, results and fault counters.

    With *killed*, ``kill_worker_on_chunk`` fires once in the run: the plan
    keys on the engine's own submission counter, so it fires once per engine
    (retried chunks get fresh indices), and the environment variable reaches
    the forked workers.
    """
    options = ResolverOptions(max_rounds=max_rounds, fallback="none")
    if killed:
        os.environ[ENV_VAR] = FaultPlan(kill_worker_on_chunk=1).encode()
    else:
        os.environ.pop(ENV_VAR, None)
    try:
        with ResolutionEngine(options, workers=workers, chunk_size=1) as engine:
            engine.warm_up()
            workload = [
                (dataset.specification_for(entity), ReluctantOracle(entity, max_rounds=max_rounds))
                for entity in entities
            ]
            start = time.perf_counter()
            results = engine.resolve_many(workload)
            wall = time.perf_counter() - start
            stats = engine.statistics.as_dict()
    finally:
        os.environ.pop(ENV_VAR, None)
    return {
        "wall_seconds": wall,
        "results": results,
        "stats": {key: float(stats.get(key, 0.0)) for key in _FAULT_COUNTERS},
    }


def _arm(runs: List[Dict]) -> Dict:
    """Best-of wall (the suite's estimator), every repeat's wall, and summed counters."""
    walls = [run["wall_seconds"] for run in runs]
    return {
        "wall_seconds": min(walls),
        "repeat_walls_seconds": walls,
        "results": runs[-1]["results"],
        "stats": {key: sum(run["stats"][key] for run in runs) for key in _FAULT_COUNTERS},
    }


def _recorded_baseline() -> Optional[Dict]:
    """The committed Fig. 8(c) ``engine_workers4`` block, or ``None``."""
    if not _BASELINE_REPORT.exists():
        return None
    payload = json.loads(_BASELINE_REPORT.read_text())
    block = payload.get("engine_comparison", {}).get("engine_workers4")
    return block if isinstance(block, dict) and "wall_seconds" in block else None


def no_fault_comparison(wall: float, entities: int, workers: int, recorded: Optional[Dict]) -> Dict:
    """The ``no_fault`` block: this run's wall against the recorded one, like with like.

    This run builds a fresh engine per repeat, so the overhead is computed
    only when *recorded* ran the same number of entities on the same number
    of workers and did the same (``fresh_engine_per_repeat``); otherwise the
    comparison fields are ``None`` and ``not_compared_because`` says why.
    """
    recorded = recorded or {}
    recorded_wall = recorded.get("wall_seconds")
    overhead_pct = None
    reason = None
    if not recorded_wall:
        reason = "no recorded fig8c engine run"
    elif (recorded.get("entities"), recorded.get("workers")) != (entities, workers):
        reason = (
            f"the recorded fig8c engine run is a different workload"
            f" ({float(recorded.get('entities') or 0):g} entities on"
            f" {float(recorded.get('workers') or 0):g} workers)"
        )
    elif not recorded.get("fresh_engine_per_repeat"):
        reason = "the recorded fig8c engine run times its repeats on one warm engine, this run on fresh ones"
    else:
        overhead_pct = (wall - recorded_wall) / recorded_wall * 100.0
    return {
        "wall_seconds": wall,
        "recorded_fig8c_wall_seconds": recorded_wall,
        "recorded_fig8c_entities": recorded.get("entities"),
        "recorded_fig8c_workers": recorded.get("workers"),
        "overhead_vs_recorded_pct": overhead_pct,
        "within_2pct_of_recorded": None if overhead_pct is None else overhead_pct <= 2.0,
        "not_compared_because": reason,
    }


def fault_recovery_table(workers: int = 4, repeats: int = 7) -> Dict:
    """Measure fault-free vs worker-killed walls; return the JSON payload."""
    dataset = nba_scalability_dataset()
    entities = _bench_entities(dataset)
    repeats = max(1, repeats)
    clean_runs: List[Dict] = []
    killed_runs: List[Dict] = []
    for _ in range(repeats):
        clean_runs.append(_one_run(dataset, entities, workers=workers, killed=False))
        killed_runs.append(_one_run(dataset, entities, workers=workers, killed=True))
    clean, killed = _arm(clean_runs), _arm(killed_runs)

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
        "repeats": float(repeats),
        "smoke": _SMOKE,
        "results_identical_after_kill": identical,
        "no_fault": dict(
            no_fault_comparison(clean["wall_seconds"], len(entities), workers, _recorded_baseline()),
            repeat_walls_seconds=clean["repeat_walls_seconds"],
        ),
        "worker_killed": {
            "wall_seconds": killed["wall_seconds"],
            "repeat_walls_seconds": killed["repeat_walls_seconds"],
            "recovery_overhead_pct": recovery_pct,
            # Counters are summed over the repeats; per-run they divide out.
            "pool_rebuilds_per_run": killed["stats"]["pool_rebuilds"] / float(repeats),
            "chunk_retries_per_run": killed["stats"]["chunk_retries"] / float(repeats),
            "quarantined": killed["stats"]["quarantined"],
        },
    }


def _spread(walls: Sequence[float]) -> str:
    return f"{min(walls):.3f}–{max(walls):.3f}s"


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
            f"\nno-fault wall not compared with the recorded fig8c engine wall"
            f" ({no_fault['recorded_fig8c_wall_seconds']:.3f}s): {no_fault['not_compared_because']}"
        )
    table += (
        f"\nrecovery overhead for one killed worker: {killed['recovery_overhead_pct']:+.1f}%"
        f" (best of {payload['repeats']:.0f}; walls per repeat {_spread(no_fault['repeat_walls_seconds'])}"
        f" clean, {_spread(killed['repeat_walls_seconds'])} killed)"
    )
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
    benchmark(lambda: _one_run(dataset, entities, workers=2, killed=False))


if __name__ == "__main__":
    run_fault_recovery()
