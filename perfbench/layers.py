"""Layer tracing from outside the program: wrap public functions, record spans.

:data:`TABLE` is the one place that says which public function of which
layer feeds which per-layer metric.  :class:`Tracer` swaps every listed
function for a timing wrapper while a traced pass runs and puts the
originals back afterwards; nothing inside ``src/repro`` changes.  A target
that no longer exists is reported as missing, and its metrics stay 0.

Each span records its name, start, end, parent span and (where the call
names one) its entity key or request id.  Spans are kept in memory and
written out by ``run.py`` when the run ends.  A layer's self time is its
spans' time minus the time of the spans they contain.  Calls returning a
generator are timed over their iteration, one span per item pulled.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import types
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def _add(name: str) -> Callable:
    def count(tracer: "Tracer", args: tuple, result: Any) -> None:
        tracer.counts[name] += 1

    return count


def _count_solve(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["solvers.solve_calls"] += 1
    tracer.counts["solvers.conflicts"] += result.conflicts
    tracer.counts["solvers.propagations"] += result.propagations


def _count_full_encode(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["encoding.full_encodes"] += 1
    tracer.counts["encoding.clauses"] += args[0].statistics().get("initial_clauses", 0)


def _count_get(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["api.store.gets"] += 1
    tracer.counts["api.store.hits"] += result is not None


def _spec_name(args: tuple) -> Optional[str]:
    return getattr(args[1], "name", None) if len(args) > 1 else None


def _entity_key(args: tuple) -> Optional[str]:
    return args[1] if len(args) > 1 and isinstance(args[1], str) else None


def _request_id(args: tuple) -> Optional[str]:
    return getattr(args[1], "id", None) if len(args) > 1 else None


#: (self-time metric, "module:qualified.name", count hook, span key).
#: Several targets may feed one metric; their self times add up.
TABLE: Tuple[Tuple[str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("solvers.solve_s", "repro.solvers.session:SolverSession.solve", _count_solve, None),
    ("encoding.full_encode_s", "repro.encoding.incremental:IncrementalEncoder.__init__", _count_full_encode, _spec_name),
    ("encoding.delta_encode_s", "repro.encoding.incremental:IncrementalEncoder.apply_delta", _add("encoding.delta_encodes"), None),
    ("resolution.validity_s", "repro.resolution.validity:check_validity", None, None),
    ("resolution.deduce_s", "repro.resolution.deduce:deduce_order", None, None),
    ("resolution.deduce_s", "repro.resolution.true_values:extract_true_values", None, None),
    ("resolution.suggest_s", "repro.resolution.suggest:suggest", _add("resolution.rounds"), None),
    ("resolution.finalize_s", "repro.resolution.baselines:pick_resolution", None, None),
    ("resolution.resolve_self_s", "repro.resolution.framework:ConflictResolver.resolve", None, _spec_name),
    ("engine.self_s", "repro.engine.core:ResolutionEngine.resolve_stream", None, None),
    ("engine.self_s", "repro.engine.core:ResolutionEngine.resolve_task", None, _spec_name),
    ("api.client_self_s", "repro.api.client:ResolutionClient.resolve", None, None),
    ("api.client_self_s", "repro.api.client:ResolutionClient.resolve_stream", None, None),
    ("api.spec_hash_s", "repro.api.config:RunConfig.spec_hash", None, _spec_name),
    ("api.store.get_s", "repro.api.store:ResultStore.get", _count_get, _entity_key),
    ("api.store.put_s", "repro.api.store:ResultStore.put", None, _entity_key),
    ("api.store.invalidate_s", "repro.api.store:ResultStore.invalidate", None, None),
    ("serving.submit_s", "repro.serving.cluster:ServingCluster.submit_request", None, _request_id),
    ("cdc.feed_s", "repro.cdc.feed:ChangeFeed.append", None, None),
    ("cdc.feed_s", "repro.cdc.feed:ChangeFeed.events", None, None),
    ("cdc.impact_s", "repro.cdc.impact:RegistryState.apply", None, None),
    ("cdc.spec_build_s", "repro.cdc.impact:RegistryState.specification", None, _entity_key),
    ("cdc.cursor_save_s", "repro.pipeline.checkpoint:Checkpoint.save", None, None),
    ("cdc.consumer_self_s", "repro.cdc.consumer:ChangeConsumer.consume", None, None),
)

#: Self-time metrics of :data:`TABLE` (reported even when they stay 0).
SELF_TIME_METRICS = tuple(dict.fromkeys(metric for metric, _, _, _ in TABLE))
#: Exact counts the hooks of :data:`TABLE` produce.
COUNT_METRICS = (
    "solvers.solve_calls",
    "solvers.conflicts",
    "solvers.propagations",
    "encoding.full_encodes",
    "encoding.clauses",
    "encoding.delta_encodes",
    "resolution.rounds",
)


class Tracer:
    """Span recorder for one traced pass (single-threaded callers only).

    Calls from other threads run unrecorded; a coroutine's span is
    recorded whole, outside the span stack, because coroutines of one
    loop interleave.
    """

    def __init__(self) -> None:
        #: (id, name, start, end, parent id or 0, key) per finished span.
        self.spans: List[Tuple[int, str, float, float, int, Optional[str]]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Summed time of spans with no parent.
        self.top_s = 0.0
        #: Targets of :data:`TABLE` that could not be found.
        self.missing: List[str] = []
        self._stack: List[list] = []
        self._next_id = 0
        self._thread = threading.get_ident()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------------

    def _begin(self, name: str, key: Optional[str]) -> list:
        self._next_id += 1
        frame = [self._next_id, name, perf_counter(), 0.0, key]
        self._stack.append(frame)
        return frame

    def _end(self, frame: list) -> None:
        end = perf_counter()
        while self._stack and self._stack.pop() is not frame:
            pass  # a child left open by an exception unwinds with its parent
        duration = end - frame[2]
        self.self_s[frame[1]] += duration - frame[3]
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            self.top_s += duration
            parent_id = 0
        self.spans.append((frame[0], frame[1], frame[2], end, parent_id, frame[4]))

    def _record_whole(self, name: str, start: float, key: Optional[str]) -> None:
        end = perf_counter()
        self._next_id += 1
        self.self_s[name] += end - start
        self.top_s += end - start
        self.spans.append((self._next_id, name, start, end, 0, key))

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, metric: str, original: Callable, count: Optional[Callable],
              key: Optional[Callable]) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def traced_coroutine(*args, **kwargs):
                start = perf_counter()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._record_whole(metric, start, key(args) if key else None)
                if count is not None:
                    count(tracer, args, result)
                return result

            return traced_coroutine

        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def traced_generator(*args, **kwargs):
                if threading.get_ident() != tracer._thread:
                    return original(*args, **kwargs)
                return tracer._iterate(metric, original(*args, **kwargs), key(args) if key else None)

            return traced_generator

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return original(*args, **kwargs)
            frame = tracer._begin(metric, key(args) if key else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._end(frame)
            if count is not None:
                count(tracer, args, result)
            if isinstance(result, types.GeneratorType):
                return tracer._iterate(metric, result, frame[4])
            return result

        return traced

    def _iterate(self, metric: str, iterator: Iterator, key: Optional[str]) -> Iterator:
        try:
            while True:
                frame = self._begin(metric, key)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._end(frame)
                yield item
        finally:
            frame = self._begin(metric, key)
            try:
                iterator.close()
            finally:
                self._end(frame)

    # -- installation ----------------------------------------------------------

    @staticmethod
    def _locate(target: str) -> Tuple[Any, str, Any]:
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        return owner, name, original

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, current))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every target of :data:`TABLE` that exists."""
        for metric, target, count, key in TABLE:
            try:
                owner, name, original = self._locate(target)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                continue
            wrapper = self._wrap(metric, original, count, key)
            self._patch(owner, name, wrapper)
            if not isinstance(owner, type):
                # ``from module import name`` made more bindings of the
                # function; calls go through those, so wrap them too.
                for module in list(sys.modules.values()):
                    if (module is not owner and getattr(module, "__name__", "").startswith("repro")
                            and getattr(module, name, None) is original):
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        """Put every original back (reverse order, so doubles unwind)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> Dict[str, float]:
        """Per-layer self times, counts and the two trace-quality ratios."""
        values: Dict[str, float] = {metric: self.self_s.get(metric, 0.0) for metric in SELF_TIME_METRICS}
        for name in COUNT_METRICS:
            values[name] = float(self.counts.get(name, 0))
        gets = self.counts.get("api.store.gets", 0)
        values["api.store.hit_ratio"] = self.counts.get("api.store.hits", 0) / gets if gets else 0.0
        values["trace.accounted_fraction"] = sum(self.self_s.values()) / traced_wall
        values["trace.overhead_fraction"] = traced_wall / untraced_wall - 1.0
        return values

    def span_records(self) -> List[Dict[str, Any]]:
        return [
            {"id": ident, "name": name, "start": start, "end": end, "parent": parent, "key": key}
            for ident, name, start, end, parent, key in self.spans
        ]
