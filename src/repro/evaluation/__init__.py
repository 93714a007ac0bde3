"""Evaluation harness: metrics, simulated users, experiment runners, reporting."""

from repro.evaluation.experiment import (
    EntityOutcome,
    ExperimentResult,
    MetricsSink,
    ScoreStage,
)
from repro.evaluation.interaction import GroundTruthOracle, NoisyOracle, ReluctantOracle
from repro.evaluation.metrics import AccuracyCounts, f_measure, precision, recall, score_entity
from repro.evaluation.reporting import format_series, format_summary, format_table

__all__ = [
    "AccuracyCounts",
    "EntityOutcome",
    "ExperimentResult",
    "GroundTruthOracle",
    "MetricsSink",
    "NoisyOracle",
    "ScoreStage",
    "ReluctantOracle",
    "f_measure",
    "format_series",
    "format_summary",
    "format_table",
    "precision",
    "recall",
    "score_entity",
]
