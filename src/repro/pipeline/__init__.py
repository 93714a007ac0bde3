"""Composable streaming pipelines (``Source → Stage → Sink``) with bounded memory.

The end-to-end data-quality flow of the paper — raw tuples → record linkage →
interactive conflict resolution → accuracy metrics — runs here as a single
pull-based pass: generic plumbing in :mod:`repro.pipeline.core`, resumable
checkpoints in :mod:`repro.pipeline.checkpoint`, and streaming linkage in
:mod:`repro.pipeline.stages`; the resolve stage is the client's
(:meth:`repro.api.ResolutionClient.resolve_stage`).
"""

from repro.pipeline.checkpoint import Checkpoint, CheckpointSink, skip_items
from repro.pipeline.core import (
    BatchStage,
    CollectSink,
    FilterStage,
    FunctionSink,
    JsonlSink,
    MapStage,
    ParallelMapStage,
    Pipeline,
    PipelineReport,
    ProgressSink,
    Sink,
    SkipStage,
    Stage,
    StreamProbe,
)
from repro.pipeline.stages import LinkageStage

__all__ = [
    "BatchStage",
    "Checkpoint",
    "CheckpointSink",
    "CollectSink",
    "FilterStage",
    "FunctionSink",
    "JsonlSink",
    "LinkageStage",
    "MapStage",
    "ParallelMapStage",
    "Pipeline",
    "PipelineReport",
    "ProgressSink",
    "Sink",
    "SkipStage",
    "Stage",
    "StreamProbe",
    "skip_items",
]
