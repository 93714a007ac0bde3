"""Shared machinery for the benchmark suite.

Every figure of the paper's evaluation (Fig. 8(a)–(p)) has its own
``bench_fig8*.py`` file; the common logic — bench-sized dataset construction
(cached per session), accuracy panels, interaction panels, scalability
buckets, and result reporting — lives here so that each benchmark file stays a
thin, readable description of one experiment.

Results are printed and also written to ``benchmarks/results/<name>.txt`` so
they survive pytest's output capturing; EXPERIMENTS.md summarises them next to
the numbers reported in the paper.  Smoke runs (``REPRO_BENCH_SMOKE=1``) write
to ``<tmpdir>/repro-bench-smoke/`` instead, so a shrunken workload never
overwrites a committed full-mode result.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.datasets import (
    CareerConfig,
    GeneratedDataset,
    NBAConfig,
    PersonConfig,
    generate_career_dataset,
    generate_nba_dataset,
    generate_person_dataset,
)
from repro.encoding import IncrementalEncoder
from repro.api import ResolutionClient, RunConfig
from repro.engine import ResolutionEngine
from repro.evaluation import (
    ExperimentResult,
    format_series,
    format_table,
)
from repro.resolution import check_validity, deduce_order, naive_deduce
from repro.resolution.framework import ConflictResolver, ResolverOptions
from repro.evaluation.interaction import ReluctantOracle


def run_client_experiment(
    dataset,
    *,
    max_interaction_rounds: int = 5,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    max_inflight_chunks: Optional[int] = None,
    incremental: bool = True,
    resolver_options: Optional[ResolverOptions] = None,
    **kwargs,
):
    """Framework experiment through the public facade.

    One :class:`~repro.api.RunConfig` built from the benchmark's keywords and
    one short-lived :class:`~repro.api.ResolutionClient` running
    :meth:`~repro.api.ResolutionClient.run_experiment`.
    """
    options = resolver_options or ResolverOptions(
        max_rounds=max_interaction_rounds,
        fallback="none",
        incremental=incremental,
    )
    config = RunConfig(
        options=options,
        workers=workers,
        chunk_size=chunk_size,
        max_inflight_chunks=max_inflight_chunks,
    )
    with ResolutionClient(config) as client:
        return client.run_experiment(dataset, **kwargs)


def run_client_baseline(dataset, method: str, *, workers: int = 1, seed: int = 0,
                        repetitions: int = 3, **kwargs):
    """Baseline experiment through the public facade (see above)."""
    with ResolutionClient(RunConfig(workers=max(1, workers))) as client:
        return client.run_experiment(
            dataset,
            baseline=method,
            baseline_seed=seed,
            baseline_repetitions=repetitions,
            **kwargs,
        )

RESULTS_DIR = Path(__file__).parent / "results"
#: Where smoke runs write their results (never the committed ``RESULTS_DIR``).
SMOKE_RESULTS_DIR = Path(tempfile.gettempdir()) / "repro-bench-smoke"

#: Constraint fractions used by the accuracy panels (x-axis of Fig. 8(f)–(p)).
FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)


def _output_dir() -> Path:
    """``RESULTS_DIR``, or ``SMOKE_RESULTS_DIR`` under ``REPRO_BENCH_SMOKE=1``."""
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    directory = SMOKE_RESULTS_DIR if smoke else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def report(name: str, text: str) -> None:
    """Print *text* and persist it as ``<name>.txt`` (see :func:`_output_dir`)."""
    (_output_dir() / f"{name}.txt").write_text(text + "\n")
    print(f"\n[{name}]\n{text}")


def provenance() -> Dict[str, Any]:
    """Where and on what the numbers were measured.

    The fields ``perfbench/run.py`` records (less its seed): host, CPU
    count, the checkout's git sha and whether tracked files differ from it,
    and the Python version.
    """
    root = Path(__file__).resolve().parent.parent
    sha, dirty = "unknown (not a git checkout)", None
    if (root / ".git").exists():

        def git(*args: str) -> str:
            done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=60)
            return done.stdout.strip() if done.returncode == 0 else ""

        try:
            sha = git("rev-parse", "HEAD") or sha
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
    }


def report_json(name: str, payload: Dict) -> Path:
    """Persist a structured result as ``<name>.json`` (see :func:`_output_dir`).

    The JSON companion of :func:`report`: machine-readable numbers (timings,
    incremental-reuse counters, speedups) that the perf trajectory across PRs
    can diff without re-parsing the text tables, with a ``provenance`` block
    (see :func:`provenance`).
    """
    path = _output_dir() / f"{name}.json"
    record = dict(payload, provenance=provenance())
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


# -- incremental-reuse statistics ---------------------------------------------------


def reuse_statistics(result: ExperimentResult) -> Dict[str, float]:
    """Reuse counters plus per-phase time totals for one experiment run."""
    totals: Dict[str, float] = {
        phase: sum(outcome.seconds.get(phase, 0.0) for outcome in result.outcomes)
        for phase in ("encode", "validity", "deduce", "suggest", "total")
    }
    stats: Dict[str, float] = {f"seconds_{phase}": value for phase, value in totals.items()}
    stats["seconds_pipeline"] = totals["encode"] + totals["validity"] + totals["deduce"] + totals["suggest"]
    stats["entities"] = float(len(result.outcomes))
    for key, value in result.reuse_summary().items():
        stats[key] = value
    return stats


def incremental_comparison(
    dataset: GeneratedDataset,
    max_rounds: int = 2,
    limit: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Run the framework twice — incremental sessions vs. from-scratch — and
    report per-phase times, reuse counters and the resulting speedup.

    This is the acceptance measurement of the incremental-session refactor:
    the multi-round interaction workload re-solves ``S_e ⊕ O_t`` every round,
    which is exactly where clause retention and delta encoding pay off.
    """
    comparison: Dict[str, Dict[str, float]] = {}
    for mode, incremental in (("incremental", True), ("from_scratch", False)):
        result = run_client_experiment(
            dataset,
            max_interaction_rounds=max_rounds,
            limit=limit,
            incremental=incremental,
        )
        stats = reuse_statistics(result)
        stats["f_measure"] = result.f_measure
        comparison[mode] = stats
    incremental_pipeline = comparison["incremental"]["seconds_pipeline"]
    from_scratch_pipeline = comparison["from_scratch"]["seconds_pipeline"]
    comparison["speedup"] = {
        "pipeline_seconds_incremental": incremental_pipeline,
        "pipeline_seconds_from_scratch": from_scratch_pipeline,
        "pipeline_speedup": (
            from_scratch_pipeline / incremental_pipeline if incremental_pipeline > 0 else 0.0
        ),
    }
    return comparison


# -- bench-sized datasets (cached for the whole pytest session) -----------------


@functools.lru_cache(maxsize=None)
def nba_accuracy_dataset() -> GeneratedDataset:
    """NBA dataset used by the accuracy/interaction panels."""
    return generate_nba_dataset(NBAConfig(num_players=15, seed=101))


@functools.lru_cache(maxsize=None)
def career_accuracy_dataset() -> GeneratedDataset:
    """CAREER dataset used by the accuracy/interaction panels.

    The citation probability and missing-value rate are chosen so that the
    automatic coverage lands near the paper's 78 % (Fig. 8(i)): with denser
    citations the synthetic CAREER entities become fully determined and the
    panel degenerates.
    """
    from repro.datasets import CorruptionConfig

    return generate_career_dataset(
        CareerConfig(
            num_authors=15,
            seed=102,
            citation_probability=0.12,
            corruption=CorruptionConfig(
                drop_latest_tuple=False,
                null_probability=0.03,
                version_null_probability=0.12,
                protected_attributes=("first_name", "last_name"),
            ),
        )
    )


@functools.lru_cache(maxsize=None)
def person_accuracy_dataset() -> GeneratedDataset:
    """Person dataset used by the accuracy/interaction panels."""
    return generate_person_dataset(PersonConfig(num_entities=15, seed=103))


@functools.lru_cache(maxsize=None)
def nba_scalability_dataset() -> GeneratedDataset:
    """NBA dataset with entity sizes spanning the paper's buckets (scaled down)."""
    return generate_nba_dataset(
        NBAConfig(num_players=24, seed=104, sources_per_season=(1, 18))
    )


@functools.lru_cache(maxsize=None)
def person_scalability_dataset(tuples_per_entity: int) -> GeneratedDataset:
    """Person dataset whose entities hold roughly *tuples_per_entity* tuples."""
    return generate_person_dataset(
        PersonConfig(
            num_entities=3,
            tuples_per_entity=tuples_per_entity,
            versions_per_entity=min(24, max(6, tuples_per_entity // 12)),
            seed=105,
        )
    )


#: Entity-size buckets for the NBA scalability figures (the paper uses
#: [1,27]…[109,135]; the synthetic rebuild spans the same lower buckets).
NBA_BUCKETS: Tuple[Tuple[int, int], ...] = ((2, 27), (28, 54), (55, 81), (82, 120))

#: Tuple counts for the Person scalability figures (the paper scales s up to
#: 10 000 on a C++ implementation; the pure-Python rebuild uses smaller sizes,
#: the scaling *trend* is what the figure shows).
PERSON_SIZES: Tuple[int, ...] = (25, 75, 150, 300)


# -- accuracy / interaction panels ------------------------------------------------


def accuracy_panel(
    dataset: GeneratedDataset,
    vary: str,
    interaction_rounds: Sequence[int],
    include_pick: bool,
    limit: Optional[int] = None,
) -> str:
    """Compute one accuracy panel (one of Fig. 8(f)–(p)).

    Parameters
    ----------
    dataset:
        The dataset to evaluate on.
    vary:
        ``"both"`` varies |Σ|+|Γ| together, ``"sigma"`` varies |Σ| with Γ = ∅,
        ``"gamma"`` varies |Γ| with Σ = ∅.
    interaction_rounds:
        One F-measure curve is produced per interaction budget.
    include_pick:
        Add the Pick baseline line (the paper only shows it on the
        "vary both" panels).
    """
    lines: List[str] = []
    for rounds in interaction_rounds:
        ys: List[float] = []
        for fraction in FRACTIONS:
            sigma_fraction = fraction if vary in ("both", "sigma") else 0.0
            gamma_fraction = fraction if vary in ("both", "gamma") else 0.0
            result = run_client_experiment(
                dataset,
                sigma_fraction=sigma_fraction,
                gamma_fraction=gamma_fraction,
                max_interaction_rounds=rounds,
                limit=limit,
            )
            ys.append(result.f_measure)
        lines.append(format_series(f"{rounds}-interaction", FRACTIONS, ys))
    if include_pick:
        pick = run_client_baseline(dataset, "pick", limit=limit)
        lines.append(format_series("Pick", FRACTIONS, [pick.f_measure] * len(FRACTIONS)))
    return "\n".join(lines)


def interaction_panel(dataset: GeneratedDataset, max_rounds: int, limit: Optional[int] = None) -> str:
    """Fraction of true attribute values identified after 0..max_rounds rounds
    (one of Fig. 8(e)/(i)/(m))."""
    result = run_client_experiment(dataset, max_interaction_rounds=max_rounds, limit=limit)
    series = result.true_value_fraction_by_round(max_rounds)
    rows = [[rounds, fraction] for rounds, fraction in enumerate(series)]
    table = format_table(["#interactions", "fraction of true values"], rows)
    table += f"\nmax interaction rounds actually used: {result.max_rounds_used()}"
    return table


# -- scalability helpers ------------------------------------------------------------


def nba_bucket_specs(limit_per_bucket: int = 3):
    """Yield (bucket, entity, specification) triples for the NBA size buckets."""
    dataset = nba_scalability_dataset()
    grouped = dataset.entities_by_size(NBA_BUCKETS)
    for bucket, entities in grouped.items():
        for entity in entities[:limit_per_bucket]:
            yield bucket, entity, dataset.specification_for(entity)


def person_size_specs(limit_per_size: int = 2):
    """Yield (size, entity, specification) triples for the Person size sweep."""
    for size in PERSON_SIZES:
        dataset = person_scalability_dataset(size)
        for entity in dataset.entities[:limit_per_size]:
            yield size, entity, dataset.specification_for(entity)


def time_validity(spec) -> Tuple[float, Dict[str, int]]:
    """Wall-clock seconds of one IsValid run, its full encode included, plus encoding statistics."""
    start = time.perf_counter()
    encoder = IncrementalEncoder(spec)
    check_validity(encoder)
    return time.perf_counter() - start, encoder.encoding.statistics()


def time_deduction(spec, naive: bool, naive_pair_cap: Optional[int] = 400) -> float:
    """Wall-clock seconds of DeduceOrder (or NaiveDeduce) on *spec*, its encode excluded."""
    encoder = IncrementalEncoder(spec)
    start = time.perf_counter()
    if naive:
        naive_deduce(encoder, max_pairs=naive_pair_cap)
    else:
        deduce_order(encoder)
    return time.perf_counter() - start


def time_overall(dataset: GeneratedDataset, entity) -> Dict[str, float]:
    """Per-phase wall-clock seconds of one full interactive resolution."""
    spec = dataset.specification_for(entity)
    resolver = ConflictResolver(ResolverOptions(max_rounds=2, fallback="none"))
    result = resolver.resolve(spec, ReluctantOracle(entity, max_rounds=2))
    return result.total_seconds()


# -- engine comparison -------------------------------------------------------------


def engine_overall_comparison(
    dataset: GeneratedDataset,
    entities: Sequence,
    max_rounds: int = 2,
    workers: int = 4,
    chunk_size: Optional[int] = None,
    repeats: int = 3,
) -> Dict[str, Dict[str, float]]:
    """Wall-clock of the same overall workload under two execution modes.

    * ``sequential`` — one in-process resolver stamping the compiled
      constraint program;
    * ``engine_workers<N>`` — the :class:`ResolutionEngine` process pool with
      compiled programs warm per worker.

    The acceptance measurement of the engine refactor: the returned dict
    (serialised into the figure's JSON report) carries each mode's wall-clock
    and compile-reuse counters plus the parallel-over-sequential speedup.
    Each mode is timed *repeats* times and the best run is reported (the
    standard noise-robust estimator); task construction happens outside the
    timed region and the pool is warmed before timing — a resolution service
    pays process startup once, not per workload (the warmup cost is recorded
    alongside so the report stays honest).  ``cpus`` is recorded so the
    trajectory stays interpretable: on a host with fewer CPUs than workers
    the pool cannot beat one process.
    """

    def tasks():
        return [
            (dataset.specification_for(entity), ReluctantOracle(entity, max_rounds=max_rounds))
            for entity in entities
        ]

    modes: Dict[str, Dict[str, float]] = {}
    options = ResolverOptions(max_rounds=max_rounds, fallback="none")
    for name, mode_workers in (("sequential", 1), (f"engine_workers{workers}", workers)):
        with ResolutionEngine(options, workers=mode_workers, chunk_size=chunk_size) as engine:
            warmup = engine.warm_up()
            wall = float("inf")
            for _ in range(repeats):
                workload = tasks()
                start = time.perf_counter()
                engine.resolve_many(workload)
                wall = min(wall, time.perf_counter() - start)
            stats = engine.statistics.as_dict()
        stats["wall_seconds"] = wall
        stats["pool_warmup_seconds"] = warmup
        stats["repeats"] = float(repeats)
        modes[name] = stats
    sequential = modes["sequential"]["wall_seconds"]
    parallel = modes[f"engine_workers{workers}"]["wall_seconds"]
    modes["speedup"] = {
        "cpus": float(os.cpu_count() or 1),
        "entities": float(len(entities)),
        "engine_over_sequential": sequential / parallel if parallel > 0 else 0.0,
    }
    return modes


def report_engine_summary(name: str, dataset: GeneratedDataset, entities: Sequence, workers: int = 4) -> str:
    """Run the engine acceptance measurement, persist the JSON report, and
    return a one-line table suffix (shared by the fig. 8c/8d benchmarks)."""
    engine = engine_overall_comparison(dataset, entities, workers=workers)
    report_json(name, {"engine_comparison": engine})
    speedup = engine["speedup"]
    return (
        f"\nengine(workers={workers}) {engine[f'engine_workers{workers}']['wall_seconds']:.2f}s"
        f" vs sequential {engine['sequential']['wall_seconds']:.2f}s"
        f" ({speedup['engine_over_sequential']:.2f}x, {speedup['cpus']:.0f} cpus)"
    )
