"""The parallel multi-entity resolution engine.

The paper's overall experiments (Fig. 8c/8d) resolve *hundreds of entities*
per dataset; entities are independent, so the across-entity dimension is
embarrassingly parallel.  :class:`ResolutionEngine` schedules a stream of
(specification, oracle) tasks over a :class:`~concurrent.futures.ProcessPoolExecutor`:

* **adaptive chunked dispatch** — entities are grouped into chunks so
  per-task pickling and scheduling overhead is amortised over several
  resolutions; without an explicit ``chunk_size`` the engine sizes chunks
  from an EWMA of observed per-entity cost (targeting
  :data:`ADAPTIVE_TARGET_SECONDS` of worker wall-clock per chunk), so a
  skewed stream rebalances instead of idling workers behind a fixed count;
* **zero-copy constraint shipping** — a dataset's Σ ∪ Γ is pickled once per
  distinct constraint set and sent as ready-made bytes with each chunk
  (bytes re-pickle as a memcpy); workers unpickle the payload once and
  rebuild every chunk's specifications around the shared constraint tuples;
* **per-worker warm state** — each worker process holds one long-lived
  :class:`~repro.resolution.framework.ConflictResolver` whose compiled
  constraint program cache persists across chunks (see
  :mod:`repro.engine.worker`);
* **streaming ordered results** — :meth:`ResolutionEngine.resolve_stream`
  yields resolutions in task order as soon as their chunk completes, keeping
  only a bounded window of chunks in flight, so a million-entity stream never
  materialises in memory;
* **sequential fast path** — ``workers <= 1`` resolves in-process with the
  same warm resolver, no pool, no pickling; the parallel and sequential paths
  are equivalence-tested to produce identical resolutions.

Determinism: every resolution depends only on its own specification and
oracle (workers share no mutable state), and results are re-ordered to task
order, so the engine output is independent of ``workers`` and chunking.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import EntityFailure, ReproError
from repro.core.retry import classify_retryable
from repro.core.specification import Specification
from repro.engine.supervision import QuarantineRecord, failure_from_error
from repro.engine.worker import initialize_worker, ping, resolve_shipped_chunk
from repro.resolution.framework import (
    ConflictResolver,
    Oracle,
    ResolutionResult,
    ResolverOptions,
)
from repro.encoding.incremental import IncrementalEncoder

__all__ = ["DEFAULT_CHUNK_SIZE", "EngineStatistics", "ResolutionEngine"]

#: Entities per pool task; amortises pickling/scheduling over several resolutions.
DEFAULT_CHUNK_SIZE = 4

#: Adaptive chunking aims chunks at this much worker wall-clock: long enough
#: to amortise dispatch overhead, short enough to rebalance a skewed stream.
ADAPTIVE_TARGET_SECONDS = 0.15

#: Upper bound on an adaptively chosen chunk (keeps the streaming window and
#: head-of-line latency bounded even for very cheap entities).
ADAPTIVE_MAX_CHUNK = 32

#: EWMA weight of the newest per-entity cost sample.
_EWMA_ALPHA = 0.4

#: An entity task: the specification plus its (optional) oracle.
EntityTask = Tuple[Specification, Optional[Oracle]]

#: What the supervision layer contains.  ``CancelledError`` is listed
#: explicitly because it stopped being an ``Exception`` in Python 3.8 —
#: a pool teardown racing a drain can surface it on in-flight futures.
_SUPERVISED_ERRORS = (Exception, CancelledError)


def _constraint_ident(spec: Specification) -> Tuple:
    """Identity key of a specification's constraint set (Σ ∪ Γ by object id).

    Datasets build every entity's specification around the same constraint
    objects, so this cheap key recognises "same constraints" without hashing
    constraint structure.  Keys are only compared while the engine pins the
    referenced tuples, so ids cannot be recycled under it.
    """
    return (tuple(map(id, spec.currency_constraints)), tuple(map(id, spec.cfds)))


@dataclass
class EngineStatistics:
    """Counters of an engine's work.

    The batch entry points (:meth:`ResolutionEngine.resolve_stream` /
    ``resolve_many``) reset these per call — the statistics then describe one
    run.  The serving entry point (:meth:`ResolutionEngine.resolve_task`)
    *accumulates* instead, so a long-lived serving engine reports lifetime
    totals.
    """

    entities: int = 0
    chunks: int = 0
    workers: int = 1
    parallel: bool = False
    #: High-water mark of entities pulled from the task stream but not yet
    #: yielded as results — the engine's actual working-set size.  Bounded by
    #: ``chunk_size × max_inflight_chunks`` in parallel mode and by 1 in
    #: sequential mode, which is what makes unbounded streams safe.
    peak_inflight_entities: int = 0
    #: Summed compile-reuse counters of the program caches that served the run
    #: (per-chunk deltas from the workers, or the in-process cache delta).
    compile_reuse: Dict[str, int] = field(default_factory=dict)
    #: Size of every chunk dispatched, in dispatch order — under adaptive
    #: chunking this is the scheduler's decision log.
    chunk_sizes: List[int] = field(default_factory=list)
    #: Busy seconds per worker pid (seconds the worker spent resolving, as
    #: measured inside the worker; dispatch/pickling gaps show up as idle).
    worker_busy_seconds: Dict[str, float] = field(default_factory=dict)
    #: Wall-clock of the parallel drain (start of the first submit to the
    #: last result) — the denominator of the busy/idle split.
    run_wall_seconds: float = 0.0
    #: Distinct constraint payloads pickled by the shipping path this run
    #: (a payload is pickled once and re-sent as bytes with every chunk).
    payloads_pickled: int = 0
    #: Chunk submissions that failed and were re-driven by the supervision
    #: layer (pool crashes, worker exceptions; includes bisection re-submits).
    chunk_retries: int = 0
    #: Times a broken process pool was torn down and rebuilt mid-run.
    pool_rebuilds: int = 0
    #: Dead-letter records of entities abandoned after exhausting their
    #: attempts (see :class:`~repro.engine.supervision.QuarantineRecord`).
    quarantine: List[QuarantineRecord] = field(default_factory=list)

    def merge_counters(self, delta: Dict[str, int]) -> None:
        """Accumulate one chunk's compile-reuse counter delta."""
        for key, value in delta.items():
            self.compile_reuse[key] = self.compile_reuse.get(key, 0) + value

    def record_chunk_timing(self, pid: int, busy_seconds: float) -> None:
        """Fold one chunk's worker-side busy time into the per-worker totals."""
        key = str(pid)
        self.worker_busy_seconds[key] = self.worker_busy_seconds.get(key, 0.0) + busy_seconds

    @property
    def busy_seconds(self) -> float:
        """Total worker-side resolving seconds across the pool."""
        return sum(self.worker_busy_seconds.values())

    @property
    def idle_seconds(self) -> float:
        """Pool capacity left unused: ``workers × wall − busy`` (parallel runs)."""
        if self.run_wall_seconds <= 0.0:
            return 0.0
        return max(0.0, self.workers * self.run_wall_seconds - self.busy_seconds)

    def scheduling_detail(self) -> Dict[str, object]:
        """Chunk-size decisions and per-worker busy/idle for JSON reports."""
        return {
            "chunk_sizes": list(self.chunk_sizes),
            "worker_busy_seconds": dict(self.worker_busy_seconds),
            "run_wall_seconds": self.run_wall_seconds,
            "busy_seconds": self.busy_seconds,
            "idle_seconds": self.idle_seconds,
        }

    def as_dict(self) -> Dict[str, float]:
        """Flat representation for benchmark JSON reports."""
        flat: Dict[str, float] = {
            "entities": float(self.entities),
            "chunks": float(self.chunks),
            "workers": float(self.workers),
            "parallel": 1.0 if self.parallel else 0.0,
            "peak_inflight_entities": float(self.peak_inflight_entities),
        }
        if self.chunk_sizes:
            flat["chunk_size_min"] = float(min(self.chunk_sizes))
            flat["chunk_size_max"] = float(max(self.chunk_sizes))
            flat["chunk_size_mean"] = sum(self.chunk_sizes) / len(self.chunk_sizes)
        if self.worker_busy_seconds:
            flat["busy_seconds"] = self.busy_seconds
            flat["idle_seconds"] = self.idle_seconds
            flat["run_wall_seconds"] = self.run_wall_seconds
        if self.payloads_pickled:
            flat["payloads_pickled"] = float(self.payloads_pickled)
        # Fault counters appear only on faulted runs, keeping the no-fault
        # report shape (and the recorded benchmark JSON) unchanged.
        if self.chunk_retries:
            flat["chunk_retries"] = float(self.chunk_retries)
        if self.pool_rebuilds:
            flat["pool_rebuilds"] = float(self.pool_rebuilds)
        if self.quarantine:
            flat["quarantined"] = float(len(self.quarantine))
        for key, value in self.compile_reuse.items():
            flat[key] = float(value)
        return flat


class ResolutionEngine:
    """Resolves a stream of entities, optionally over a process pool.

    Parameters
    ----------
    options:
        Resolver configuration applied to every entity (workers are
        initialised with a pickled copy).
    workers:
        Number of worker processes; ``<= 1`` resolves in-process.
    chunk_size:
        Entities per pool task.  ``None`` (the default) enables adaptive
        chunking: chunk sizes follow an EWMA of measured per-entity cost,
        aiming at :data:`ADAPTIVE_TARGET_SECONDS` of worker wall-clock per
        chunk (bounded by :data:`ADAPTIVE_MAX_CHUNK`).  An explicit value
        pins fixed-size chunks.
    max_inflight_chunks:
        Backpressure bound: chunks submitted but not yet drained (default
        ``2 × workers``).  Together with *chunk_size* this caps the engine's
        working set at ``chunk_size × max_inflight_chunks`` entities no matter
        how long the task stream is.

    The engine is a context manager; the pool is created lazily on the first
    parallel call and reused until :meth:`close` (so several ``resolve_many``
    calls — e.g. one per dataset — share warm workers).
    """

    def __init__(
        self,
        options: Optional[ResolverOptions] = None,
        *,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        max_inflight_chunks: Optional[int] = None,
    ) -> None:
        self.options = options or ResolverOptions()
        # Before any worker spawns: each would fail building its resolver.
        self.options.check()
        # Validate up front: a bad worker count used to be clamped silently (or
        # surface as an opaque failure deep inside the pool machinery).
        if int(workers) < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = chunk_size or DEFAULT_CHUNK_SIZE
        #: With no explicit chunk_size the parallel path sizes chunks from an
        #: EWMA of observed per-entity cost (``self.chunk_size`` then only
        #: names the legacy default); an explicit chunk_size pins it.
        self.adaptive_chunking = chunk_size is None
        if max_inflight_chunks is not None and max_inflight_chunks < 1:
            raise ValueError(f"max_inflight_chunks must be >= 1, got {max_inflight_chunks}")
        self.max_inflight_chunks = max_inflight_chunks or 2 * self.workers
        if int(self.options.max_attempts) < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.options.max_attempts}")
        #: Attempts granted to one entity before it is quarantined.
        self.max_attempts = int(self.options.max_attempts)
        self.statistics = EngineStatistics(workers=self.workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._resolver: Optional[ConflictResolver] = None
        #: EWMA of per-entity busy seconds, fed by every finished chunk and
        #: kept across calls so later streams start from a warm estimate.
        self._entity_cost_ewma: Optional[float] = None
        # Constraint-shipping registry: each distinct (Σ, Γ) — recognised by
        # the identities of its constraint objects — is pickled exactly once;
        # chunks then carry the ready-made bytes.  The registry pins the
        # constraint tuples so the id-based keys stay unique.
        self._payload_lock = threading.Lock()
        self._payloads: Dict[Tuple, Tuple[int, bytes]] = {}
        self._payload_refs: List[Tuple] = []
        # Serving-mode synchronisation: resolve_task() may be called from many
        # threads at once (the async serving layer), so pool creation, the
        # shared in-process resolver and the statistics counters each get a
        # lock.  The single-caller resolve_stream() path never contends.
        self._pool_lock = threading.Lock()
        self._sequential_lock = threading.Lock()
        self._task_lock = threading.Lock()
        self._inflight_tasks = 0
        # Chunk-submission sequence number (also under _task_lock): retries
        # and bisection re-submits get fresh indices, which is what keeps
        # index-anchored fault injection from re-firing on recovery.
        self._chunk_seq = 0

    # -- lifecycle -------------------------------------------------------------

    def __enter__(self) -> "ResolutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Takes the pool lock so a close racing a concurrent
        :meth:`resolve_task`'s lazy pool creation cannot observe a
        half-created pool and leak its worker processes.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def warm_up(self) -> float:
        """Spin the worker pool up ahead of the first resolve call.

        Process creation and worker initialisation otherwise happen lazily on
        the first task; a long-lived service (and a fair steady-state
        benchmark) pays that cost once up front.  Returns the seconds spent;
        no-op (0.0) in sequential mode.
        """
        if self.workers <= 1:
            return 0.0
        start = time.perf_counter()
        pool = self._ensure_pool()
        for future in [pool.submit(ping) for _ in range(self.workers)]:
            future.result()
        return time.perf_counter() - start

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=initialize_worker,
                    initargs=(self.options,),
                )
            return self._pool

    # -- resolution ------------------------------------------------------------

    def resolve_stream(
        self, tasks: Iterable[EntityTask], *, reset_statistics: bool = True
    ) -> Iterator[ResolutionResult]:
        """Yield one :class:`ResolutionResult` per task, in task order.

        With ``workers > 1`` the stream is consumed incrementally: at most
        ``2 × workers`` chunks are in flight at any time, and results stream
        out as their chunk finishes (head-of-line, to preserve order).

        ``reset_statistics=False`` accumulates into the current
        :attr:`statistics` instead of starting a fresh per-call snapshot —
        the mode long-lived holders of a shared engine (the API client's
        streaming path) use so interleaved calls
        report lifetime totals, matching :meth:`resolve_task`.  Concurrent
        ``reset_statistics=False`` streams on one engine are safe: the
        sequential path serialises per entity on the shared resolver and the
        parallel path's accounting is lock-guarded per chunk.
        """
        if reset_statistics:
            self.statistics = EngineStatistics(workers=self.workers)
        if self.workers <= 1:
            yield from self._resolve_sequential(tasks)
            return
        yield from self._resolve_parallel(tasks)

    def resolve_many(self, tasks: Iterable[EntityTask]) -> List[ResolutionResult]:
        """Resolve all tasks and return the results as a list (task order)."""
        return list(self.resolve_stream(tasks))

    def resolve_task(
        self,
        spec: Specification,
        oracle: Optional[Oracle] = None,
        *,
        encoder: Optional["IncrementalEncoder"] = None,
    ) -> ResolutionResult:
        """Resolve one entity, safely callable from many threads at once.

        This is the serving-layer entry point: concurrent requests share the
        warm worker pool (and its per-worker compiled-program caches) instead
        of spawning their own engines.  Unlike :meth:`resolve_stream` — a
        single-caller generator that resets :attr:`statistics` per call —
        ``resolve_task`` *accumulates* into the statistics, so a long-lived
        serving engine reports totals across its whole lifetime.  Each task is
        dispatched as its own single-entity chunk (no batching delay), which
        trades chunk amortisation for per-request latency; with ``workers <=
        1`` tasks serialise on the shared in-process resolver.

        Do not interleave ``resolve_task`` with ``resolve_stream`` on one
        engine: the stream's statistics reset would clobber the serving
        counters.

        A warm *encoder* (the CDC delta path) is only legal on the sequential
        path — encoders hold a live solver session that cannot cross the
        process boundary to a pool worker.
        """
        if encoder is not None and self.workers > 1:
            raise ReproError(
                "a warm encoder cannot be used on the parallel path: solver "
                "sessions do not cross process boundaries (use workers=1)"
            )
        statistics = self.statistics
        with self._task_lock:
            self._inflight_tasks += 1
            statistics.peak_inflight_entities = max(
                statistics.peak_inflight_entities, self._inflight_tasks
            )
        try:
            if self.workers <= 1:
                with self._sequential_lock:
                    if self._resolver is None:
                        self._resolver = ConflictResolver(self.options)
                    before = self._resolver.program_cache.statistics()
                    result = self._resolve_entity_inproc(
                        self._resolver, spec, oracle, encoder=encoder
                    )
                    after = self._resolver.program_cache.statistics()
                    delta = {key: after[key] - before.get(key, 0) for key in after}
                with self._task_lock:
                    statistics.entities += 1
                    statistics.chunks += 1
                    statistics.merge_counters(delta)
            else:
                with self._task_lock:
                    statistics.parallel = True
                # The supervised path folds the chunk's counters itself and
                # recovers from pool crashes / worker exceptions in line.
                result = self._resolve_chunk_sync([(spec, oracle)])[0]
            return result
        finally:
            with self._task_lock:
                self._inflight_tasks -= 1

    # -- sequential path -------------------------------------------------------

    def _resolve_sequential(self, tasks: Iterable[EntityTask]) -> Iterator[ResolutionResult]:
        # Entities serialise on the shared in-process resolver, and the
        # program-cache counter delta is merged per entity (not once per
        # stream), so concurrent streams on one engine interleave safely and
        # an abandoned stream leaves the counters consistent with `entities`.
        statistics = self.statistics
        for spec, oracle in tasks:
            with self._sequential_lock:
                if self._resolver is None:
                    self._resolver = ConflictResolver(self.options)
                resolver = self._resolver
                before = resolver.program_cache.statistics()
                result = self._resolve_entity_inproc(resolver, spec, oracle)
                after = resolver.program_cache.statistics()
                delta = {key: after[key] - before.get(key, 0) for key in after}
            with self._task_lock:
                statistics.peak_inflight_entities = max(statistics.peak_inflight_entities, 1)
                statistics.entities += 1
                statistics.merge_counters(delta)
            yield result

    # -- parallel path ---------------------------------------------------------

    def _ship(self, chunk: Sequence[EntityTask]):
        """Package *chunk* for :func:`resolve_shipped_chunk`.

        The chunk's Σ ∪ Γ is pickled once per distinct constraint set (keyed
        by the identities of the constraint objects — datasets share one
        constraint list across entities, so a whole run usually ships one
        payload) and re-sent as bytes, which pickles as a memcpy.  The
        chunker cuts chunks on constraint-set changes, so every chunk is
        homogeneous and one payload per chunk suffices.
        """
        spec = chunk[0][0]
        ident = _constraint_ident(spec)
        with self._payload_lock:
            entry = self._payloads.get(ident)
            if entry is None:
                payload = pickle.dumps(
                    (spec.currency_constraints, spec.cfds), protocol=pickle.HIGHEST_PROTOCOL
                )
                entry = (len(self._payload_refs), payload)
                self._payloads[ident] = entry
                self._payload_refs.append((spec.currency_constraints, spec.cfds))
                self.statistics.payloads_pickled += 1
        key, payload = entry
        tasks = [
            (task_spec.temporal_instance, task_spec.name, oracle) for task_spec, oracle in chunk
        ]
        return tasks, key, payload

    def _next_chunk_size(self) -> int:
        """Entities for the next chunk: fixed, or sized from the cost EWMA."""
        if not self.adaptive_chunking:
            return self.chunk_size
        ewma = self._entity_cost_ewma
        if ewma is None:
            # No cost sample yet: one single-entity probe buys the first
            # measurement quickly; until it lands, fall back to the fixed
            # default.  The seeding is deliberately independent of the pool
            # size so different worker counts dispatch the same chunks.
            return 1 if not self.statistics.chunk_sizes else self.chunk_size
        if ewma <= 0.0:
            return ADAPTIVE_MAX_CHUNK
        return max(1, min(ADAPTIVE_MAX_CHUNK, int(ADAPTIVE_TARGET_SECONDS / ewma)))

    def _observe_entity_cost(self, sample_seconds: float) -> None:
        """Fold one chunk's per-entity busy seconds into the EWMA."""
        ewma = self._entity_cost_ewma
        if ewma is None:
            self._entity_cost_ewma = sample_seconds
        else:
            self._entity_cost_ewma = _EWMA_ALPHA * sample_seconds + (1.0 - _EWMA_ALPHA) * ewma

    # -- supervision -----------------------------------------------------------

    def _submit_chunk(self, chunk: Sequence[EntityTask]) -> Future:
        """Submit *chunk* to the pool with a fresh submission index.

        A worker dying under an *earlier* chunk can break the pool before
        this one is accepted — submission itself then raises.  Nothing of
        this chunk was lost, so the pool is healed and the submit repeated
        (no chunk retry is counted); only a pool that breaks again right
        after a rebuild propagates.
        """
        tasks, key, payload = self._ship(chunk)
        with self._task_lock:
            self._chunk_seq += 1
            index = self._chunk_seq
        for resubmit in range(3):
            try:
                return self._ensure_pool().submit(
                    resolve_shipped_chunk, tasks, key, payload, index
                )
            except BrokenProcessPool as error:
                if resubmit == 2:
                    raise
                self._heal_pool(error)
        raise AssertionError("unreachable")

    def _fold_chunk_result(self, chunk_result) -> List[ResolutionResult]:
        """Account one finished chunk and surface any inline quarantines."""
        results, counter_delta, busy, pid = chunk_result
        with self._task_lock:
            statistics = self.statistics
            statistics.chunks += 1
            statistics.entities += len(results)
            statistics.merge_counters(counter_delta)
            statistics.record_chunk_timing(pid, busy)
            for result in results:
                if result.failure:
                    # The worker absorbed a deterministic failure inline
                    # (e.g. a budget blowout); record the dead letter here.
                    statistics.quarantine.append(
                        QuarantineRecord(
                            entity=result.name,
                            reason=result.failure,
                            attempts=result.attempts,
                        )
                    )
        if results:
            self._observe_entity_cost(busy / len(results))
        return results

    def _heal_pool(self, error: BaseException) -> None:
        """After *error*, replace the process pool if it is broken."""
        if not isinstance(error, BrokenProcessPool):
            return
        with self._pool_lock:
            pool = self._pool
            # A concurrent caller may have healed already; only tear down a
            # pool that is actually broken (or whose state is unknowable).
            if pool is not None and not getattr(pool, "_broken", True):
                return
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
            with self._task_lock:
                self.statistics.pool_rebuilds += 1
        # The fresh pool re-warms lazily: the engine-side payload registry
        # survives, so the next chunks re-ship the same bytes and workers
        # rebuild their constraint caches on first touch.

    def _resolve_chunk_sync(self, chunk: Sequence[EntityTask]) -> List[ResolutionResult]:
        """Resolve *chunk* synchronously on the pool, recovering on failure."""
        future = self._submit_chunk(chunk)
        try:
            return self._fold_chunk_result(future.result())
        except _SUPERVISED_ERRORS as error:
            return self._recover_chunk(chunk, error)

    def _recover_chunk(self, chunk: Sequence[EntityTask], error: BaseException) -> List[ResolutionResult]:
        """A chunk submission failed; heal the pool and re-drive the chunk.

        Multi-entity chunks are bisected so the healthy majority re-resolves
        at full speed and only the truly poisonous entity pays the retry
        ladder; a single-entity chunk goes to per-entity retry/quarantine.
        """
        self._heal_pool(error)
        with self._task_lock:
            self.statistics.chunk_retries += 1
        if len(chunk) == 1:
            return [self._retry_entity(chunk[0], error)]
        mid = len(chunk) // 2
        return self._resolve_chunk_sync(chunk[:mid]) + self._resolve_chunk_sync(chunk[mid:])

    def _retry_entity(self, task: EntityTask, first_error: BaseException) -> ResolutionResult:
        """Re-attempt one failed entity up to ``max_attempts``, then quarantine."""
        spec, oracle = task
        attempts = 1
        error = first_error
        while attempts < self.max_attempts and classify_retryable(error):
            attempts += 1
            future = self._submit_chunk([task])
            try:
                result = self._fold_chunk_result(future.result())[0]
                # A worker-absorbed failure is already quarantined (with its
                # own attempt count); a clean result ends the ladder either way.
                return result
            except _SUPERVISED_ERRORS as retry_error:
                self._heal_pool(retry_error)
                with self._task_lock:
                    self.statistics.chunk_retries += 1
                error = retry_error
        record = QuarantineRecord(
            entity=spec.name,
            reason=error.reason if isinstance(error, EntityFailure) else type(error).__name__,
            attempts=attempts,
            error=str(error),
        )
        with self._task_lock:
            self.statistics.quarantine.append(record)
            self.statistics.entities += 1
        return failure_from_error(spec, error, attempts)

    def _resolve_entity_inproc(
        self,
        resolver: ConflictResolver,
        spec: Specification,
        oracle: Optional[Oracle],
        encoder: Optional[IncrementalEncoder] = None,
    ) -> ResolutionResult:
        """Sequential-path twin of the worker+supervision behaviour.

        Retryable :class:`EntityFailure`\\ s are re-attempted up to
        ``max_attempts`` and then quarantined, exactly like the parallel
        path, so sequential and parallel runs of a faulted stream stay
        equivalent.  Other exceptions propagate (there is no process
        boundary to contain them here).
        """
        error: Optional[EntityFailure] = None
        attempts = 0
        for attempt in range(1, self.max_attempts + 1):
            attempts = attempt
            try:
                return resolver.resolve(spec, oracle, encoder=encoder)
            except EntityFailure as failure:
                error = failure
                if not failure.retryable:
                    break
                # A warm encoder's solver session is in an unknown state
                # after a failure; retries re-encode from scratch.
                encoder = None
        record = QuarantineRecord(
            entity=spec.name, reason=error.reason, attempts=attempts, error=str(error)
        )
        with self._task_lock:
            self.statistics.quarantine.append(record)
        return failure_from_error(spec, error, attempts)

    def _resolve_parallel(self, tasks: Iterable[EntityTask]) -> Iterator[ResolutionResult]:
        self._ensure_pool()
        statistics = self.statistics
        statistics.parallel = True
        max_in_flight = self.max_inflight_chunks
        pending: deque[Tuple[List[EntityTask], Future]] = deque()
        task_iter = iter(tasks)
        inflight_entities = 0
        started = time.perf_counter()

        def drain(entry: Tuple[List[EntityTask], Future]) -> Iterator[ResolutionResult]:
            nonlocal inflight_entities
            chunk, future = entry
            try:
                results = self._fold_chunk_result(future.result())
            except _SUPERVISED_ERRORS as error:
                # Later pending futures from the same broken pool fail too
                # when drained, each recovering through the healed pool.
                results = self._recover_chunk(chunk, error)
            inflight_entities -= len(chunk)
            yield from results

        # One-task pushback buffer: a task whose constraint set differs from
        # the open chunk's starts the next chunk instead (chunks must be
        # constraint-homogeneous for the shared shipping payload).
        carry: Optional[EntityTask] = None

        def next_chunk() -> List[EntityTask]:
            nonlocal carry
            target = self._next_chunk_size()
            chunk: List[EntityTask] = []
            ident = None
            while len(chunk) < target:
                task = carry if carry is not None else next(task_iter, None)
                carry = None
                if task is None:
                    break
                task_ident = _constraint_ident(task[0])
                if ident is None:
                    ident = task_ident
                elif task_ident != ident:
                    carry = task
                    break
                chunk.append(task)
            return chunk

        try:
            while True:
                chunk = next_chunk()
                if not chunk:
                    break
                statistics.chunk_sizes.append(len(chunk))
                pending.append((chunk, self._submit_chunk(chunk)))
                inflight_entities += len(chunk)
                statistics.peak_inflight_entities = max(
                    statistics.peak_inflight_entities, inflight_entities
                )
                if len(pending) >= max_in_flight:
                    yield from drain(pending.popleft())
            while pending:
                yield from drain(pending.popleft())
        finally:
            for _chunk, future in pending:
                future.cancel()
            with self._task_lock:
                statistics.run_wall_seconds += time.perf_counter() - started
