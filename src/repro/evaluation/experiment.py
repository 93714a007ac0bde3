"""Experiment scoring: per-entity outcomes and folded aggregate metrics.

This is the harness behind every figure of the evaluation: it scores each
resolution against its entity's ground truth (:class:`ScoreStage`), records
accuracy, per-phase timings and interaction rounds per entity
(:class:`EntityOutcome`), and folds everything into an
:class:`ExperimentResult` (:class:`MetricsSink`) — in constant memory when
``keep_outcomes=False``, with checkpointable folded state.

The experiment *runners* live on the unified facade:
:meth:`repro.api.ResolutionClient.run_experiment` composes these pieces into
a streaming pipeline over an :class:`~repro.serving.host.EngineHost`-leased
engine (framework path) or a process-pool map (baseline path).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.schema import RelationSchema
from repro.core.values import Value, values_equal
from repro.datasets.base import GeneratedEntity
from repro.evaluation.metrics import AccuracyCounts, score_entity
from repro.pipeline.core import Sink, Stage
from repro.resolution.baselines import (
    any_resolution,
    max_resolution,
    min_resolution,
    pick_resolution,
    vote_resolution,
)
from repro.resolution.framework import ResolutionResult

__all__ = [
    "EntityOutcome",
    "ExperimentResult",
    "MetricsSink",
    "ScoreStage",
]


@dataclass
class EntityOutcome:
    """Per-entity outcome of an experiment run."""

    entity_name: str
    entity_size: int
    counts: AccuracyCounts
    rounds_used: int = 0
    valid: bool = True
    seconds: Dict[str, float] = field(default_factory=dict)
    correct_by_round: List[int] = field(default_factory=list)
    resolution: Optional[ResolutionResult] = None
    reuse: Dict[str, int] = field(default_factory=dict)
    #: Non-empty when the entity was quarantined by the engine's supervision
    #: (the dead-letter reason); its counts then score the all-NULL fallback.
    failure: str = ""


#: Cumulative encoder/session counters surfaced per entity (the final round's
#: ``encoding_statistics`` carries the totals for the whole resolve loop).
_REUSE_KEYS = (
    "incremental",
    "delta_encodings",
    "initial_clauses",
    "incremental_clauses",
    "active_guards",
    "retired_guards",
    "session_solve_calls",
    "session_cold_solves",
    "session_incremental_solves",
    "session_clauses_added",
    "session_clauses_reused",
)

#: Phases folded into the aggregate per-phase totals.
_PHASES = ("encode", "validity", "deduce", "suggest", "total")


def _reuse_from_resolution(resolution: ResolutionResult) -> Dict[str, int]:
    """Extract the incremental-reuse counters from a resolution's last round."""
    if not resolution.rounds:
        return {}
    final = resolution.rounds[-1].encoding_statistics
    return {key: final[key] for key in _REUSE_KEYS if key in final}


@dataclass
class ExperimentResult:
    """Aggregated outcome of an experiment over a dataset.

    Outcomes are *folded* into running aggregates as they are added
    (:meth:`add_outcome`), so every aggregate below is available even when the
    per-entity outcomes themselves are discarded (``keep_outcomes=False``, the
    bounded-memory mode for long streams).  The folded state round-trips
    through :meth:`state_dict`/:meth:`load_state_dict`, which is what the
    pipeline checkpoint persists.
    """

    label: str
    outcomes: List[EntityOutcome] = field(default_factory=list)
    #: Wall-clock seconds of the whole pipeline run.  Since the streaming
    #: refactor this spans the full overlapped composition — lazy
    #: specification building, resolution, and scoring — because those phases
    #: no longer happen in separate passes; earlier recorded results timed
    #: the resolution loop alone, so compare across that boundary with care.
    wall_seconds: float = 0.0
    #: Engine/compile-reuse counters (workers, chunks, program cache hits).
    engine: Dict[str, float] = field(default_factory=dict)
    #: Engine scheduling detail (chunk-size decisions, per-worker busy/idle
    #: seconds) — empty for sequential runs and baselines.
    scheduling: Dict[str, object] = field(default_factory=dict)
    #: Whether :meth:`add_outcome` retains the per-entity outcomes.
    keep_outcomes: bool = True
    #: Entities folded in so far (== ``len(outcomes)`` when they are kept).
    entities: int = 0
    #: Entities whose resolution carried a quarantine ``failure`` marker.
    quarantined: int = 0

    # -- folded aggregates (maintained by add_outcome) -------------------------
    _counts: AccuracyCounts = field(default_factory=AccuracyCounts, repr=False)
    _phase_seconds: Dict[str, float] = field(
        default_factory=lambda: {phase: 0.0 for phase in _PHASES}, repr=False
    )
    _max_rounds: int = field(default=0, repr=False)
    _reuse_totals: Dict[str, int] = field(default_factory=dict, repr=False)
    #: ``_round_exact[k]`` sums ``series[k]`` over outcomes whose round series
    #: is longer than *k*; ``_round_tails[j]`` sums the final series value over
    #: outcomes whose series has exactly *j* entries.  Together they answer
    #: "how many true values were known after round r" for any r without
    #: keeping the per-entity series around.
    _round_exact: List[int] = field(default_factory=list, repr=False)
    _round_tails: List[int] = field(default_factory=list, repr=False)

    # -- folding ---------------------------------------------------------------

    def add_outcome(self, outcome: EntityOutcome) -> None:
        """Fold one entity's outcome into the aggregates."""
        self.entities += 1
        if outcome.failure:
            self.quarantined += 1
        self._counts = self._counts.merge(outcome.counts)
        for phase in _PHASES:
            self._phase_seconds[phase] += outcome.seconds.get(phase, 0.0)
        self._max_rounds = max(self._max_rounds, outcome.rounds_used)
        for key, value in outcome.reuse.items():
            self._reuse_totals[key] = self._reuse_totals.get(key, 0) + value
        series = outcome.correct_by_round or [outcome.counts.correct]
        while len(self._round_exact) < len(series):
            self._round_exact.append(0)
        while len(self._round_tails) <= len(series):
            self._round_tails.append(0)
        for index, value in enumerate(series):
            self._round_exact[index] += value
        self._round_tails[len(series)] += series[-1]
        if self.keep_outcomes:
            self.outcomes.append(outcome)

    # -- aggregation -----------------------------------------------------------

    def counts(self) -> AccuracyCounts:
        """Aggregate accuracy counts over all entities."""
        return AccuracyCounts(
            deduced=self._counts.deduced,
            correct=self._counts.correct,
            conflicting=self._counts.conflicting,
        )

    @property
    def precision(self) -> float:
        """Aggregate precision."""
        return self._counts.precision

    @property
    def recall(self) -> float:
        """Aggregate recall."""
        return self._counts.recall

    @property
    def f_measure(self) -> float:
        """Aggregate F-measure."""
        return self._counts.f_measure

    def mean_seconds(self, phase: str) -> float:
        """Mean per-entity wall-clock time of a phase ("encode", "validity", "deduce", "suggest", "total")."""
        if self.entities == 0:
            return 0.0
        return self._phase_seconds.get(phase, 0.0) / self.entities

    def total_seconds(self, phase: str) -> float:
        """Summed per-entity time of a phase over the whole run."""
        return self._phase_seconds.get(phase, 0.0)

    def max_rounds_used(self) -> int:
        """Largest number of interaction rounds any entity needed."""
        return self._max_rounds

    def reuse_summary(self) -> Dict[str, int]:
        """Aggregate incremental-reuse counters over all entities.

        Empty when the experiment ran the from-scratch path (or recorded no
        statistics); the benchmark harness serialises this into its JSON
        reports so the perf trajectory captures the solver-reuse win.
        """
        return dict(self._reuse_totals)

    def true_value_fraction_by_round(self, num_rounds: int) -> List[float]:
        """Fraction of (conflicting) true values identified after 0..num_rounds rounds."""
        denominator = self._counts.conflicting
        if denominator == 0:
            return [1.0] * (num_rounds + 1)
        fractions: List[float] = []
        tail_total = 0
        for round_index in range(num_rounds + 1):
            if round_index < len(self._round_tails):
                tail_total += self._round_tails[round_index]
            exact = self._round_exact[round_index] if round_index < len(self._round_exact) else 0
            fractions.append((exact + tail_total) / denominator)
        return fractions

    def summary(self) -> Dict[str, float]:
        """Compact summary dictionary used by the benchmark reports."""
        record = {
            "entities": float(self.entities),
            "precision": self.precision,
            "recall": self.recall,
            "f_measure": self.f_measure,
            "mean_total_seconds": self.mean_seconds("total"),
            "max_rounds": float(self.max_rounds_used()),
        }
        # Only fault-afflicted runs report the counter, so fault-free
        # summaries stay byte-identical to recorded baselines.
        if self.quarantined:
            record["quarantined"] = float(self.quarantined)
        return record

    # -- checkpoint state ------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable folded state (per-entity outcomes excluded)."""
        return {
            "label": self.label,
            "entities": self.entities,
            "quarantined": self.quarantined,
            "counts": {
                "deduced": self._counts.deduced,
                "correct": self._counts.correct,
                "conflicting": self._counts.conflicting,
            },
            "phase_seconds": dict(self._phase_seconds),
            "max_rounds": self._max_rounds,
            "reuse_totals": dict(self._reuse_totals),
            "round_exact": list(self._round_exact),
            "round_tails": list(self._round_tails),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore folded aggregates saved by :meth:`state_dict`.

        Restores *aggregates only* — the per-entity outcome list of the
        interrupted run is gone, so a resumed result should run with
        ``keep_outcomes=False`` (or accept that ``outcomes`` covers only the
        entities processed after the resume).
        """
        counts = state["counts"]
        self.entities = int(state["entities"])
        # Checkpoints written before the fault-tolerance work lack the key.
        self.quarantined = int(state.get("quarantined", 0))
        self._counts = AccuracyCounts(
            deduced=int(counts["deduced"]),
            correct=int(counts["correct"]),
            conflicting=int(counts["conflicting"]),
        )
        self._phase_seconds = {phase: 0.0 for phase in _PHASES}
        self._phase_seconds.update(
            {key: float(value) for key, value in state["phase_seconds"].items()}
        )
        self._max_rounds = int(state["max_rounds"])
        self._reuse_totals = {key: int(value) for key, value in state["reuse_totals"].items()}
        self._round_exact = [int(value) for value in state["round_exact"]]
        self._round_tails = [int(value) for value in state["round_tails"]]


def _correct_known(
    entity: GeneratedEntity,
    schema: RelationSchema,
    known_attributes: Sequence[str],
    resolved: Dict[str, Value],
) -> int:
    conflicting = set(entity.conflicting_attributes(schema))
    correct = 0
    for attribute in known_attributes:
        if attribute not in conflicting:
            continue
        if values_equal(resolved.get(attribute), entity.true_values.get(attribute)):
            correct += 1
    return correct


def _entity_outcome(
    entity: GeneratedEntity,
    schema: RelationSchema,
    resolution: ResolutionResult,
    elapsed: Optional[float],
) -> EntityOutcome:
    """Score one resolution against the ground truth.

    Only *deduced* values enter precision/recall; values the simulated user
    validated are excluded, exactly as in the paper's metric.  *elapsed* is
    the measured per-entity wall-clock, or ``None`` under concurrency, where
    the sum of the resolution phases stands in for it.
    """
    counts = score_entity(
        entity,
        schema,
        resolution.resolved_tuple,
        claimed_attributes=resolution.deduced_attributes,
    )
    correct_by_round: List[int] = []
    for round_report in resolution.rounds:
        known = round_report.deduced_attributes
        correct_by_round.append(_correct_known(entity, schema, known, resolution.resolved_tuple))
    seconds = resolution.total_seconds()
    if elapsed is None:
        elapsed = seconds["encode"] + seconds["validity"] + seconds["deduce"] + seconds["suggest"]
    seconds["total"] = elapsed
    return EntityOutcome(
        entity_name=entity.name,
        entity_size=entity.size(),
        counts=counts,
        rounds_used=resolution.interaction_rounds,
        valid=resolution.valid,
        seconds=seconds,
        correct_by_round=correct_by_round,
        resolution=resolution,
        reuse=_reuse_from_resolution(resolution),
        failure=getattr(resolution, "failure", ""),
    )


class ScoreStage(Stage):
    """Pipeline stage scoring ``(entity, resolution, seconds)`` triples.

    The streaming counterpart of the legacy post-hoc scoring loop: each
    resolution is scored against its entity's ground truth the moment it
    falls out of the resolve stage.
    """

    def __init__(self, schema: RelationSchema, name: str = "score") -> None:
        self.schema = schema
        self.name = name

    def process(self, stream: Iterator[Any]) -> Iterator[EntityOutcome]:
        """Yield one :class:`EntityOutcome` per resolved entity."""
        for entity, resolution, elapsed in stream:
            yield _entity_outcome(entity, self.schema, resolution, elapsed)


class MetricsSink(Sink):
    """Fold :class:`EntityOutcome` items into an :class:`ExperimentResult`."""

    def __init__(self, result: ExperimentResult, name: str = "metrics") -> None:
        self.result = result
        self.name = name

    def consume(self, item: EntityOutcome) -> None:
        """Fold one outcome."""
        self.result.add_outcome(item)

    def close(self) -> ExperimentResult:
        """Return the aggregated result."""
        return self.result


_BASELINES: Dict[str, Callable] = {
    "pick": pick_resolution,
    "vote": vote_resolution,
    "min": min_resolution,
    "max": max_resolution,
    "any": any_resolution,
}


def _baseline_entity_outcome(task: Tuple) -> EntityOutcome:
    """Resolve and score one entity with a baseline (picklable pool task)."""
    method, entity, spec, seed, runs = task
    resolve = _BASELINES[method]
    randomised = method in ("pick", "any")
    start = time.perf_counter()
    merged = AccuracyCounts()
    for repetition in range(runs):
        if randomised:
            resolved = resolve(spec, rng=random.Random(seed + repetition))
        else:
            resolved = resolve(spec)
        merged = merged.merge(score_entity(entity, spec.schema, resolved))
    elapsed = time.perf_counter() - start
    averaged = AccuracyCounts(
        deduced=round(merged.deduced / runs),
        correct=round(merged.correct / runs),
        conflicting=round(merged.conflicting / runs),
    )
    return EntityOutcome(
        entity_name=entity.name,
        entity_size=entity.size(),
        counts=averaged,
        seconds={"total": elapsed},
    )
