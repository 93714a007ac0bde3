"""Domain stages wiring the repro layers into streaming pipelines.

:class:`LinkageStage` connects the generic pipeline plumbing
(:mod:`repro.pipeline.core`) to record linkage: raw row mappings in,
:class:`EntityInstance` objects out, via an incrementally flushed
:class:`StreamingLinker`.  The resolve stage is the client's
(:meth:`repro.api.ResolutionClient.resolve_stage`).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.linkage.streaming import StreamingLinker
from repro.pipeline.core import Stage

__all__ = ["LinkageStage"]


class LinkageStage(Stage):
    """Map a raw-row stream to entity instances through a streaming linker."""

    def __init__(self, linker: StreamingLinker, name: str = "linkage") -> None:
        self.linker = linker
        self.name = name

    def process(self, stream: Iterator[Any]) -> Iterator[Any]:
        """Yield instances as blocking buckets complete (and all at flush)."""
        for row in stream:
            yield from self.linker.add(row)
        yield from self.linker.flush()
