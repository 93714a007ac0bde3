"""The one front door: :class:`ResolutionClient`.

Before this facade the system had five ways to resolve an entity — a bare
:class:`~repro.resolution.framework.ConflictResolver`, the engine's
``resolve_stream``/``resolve_task``, the experiment runners, hand-built
:class:`~repro.pipeline.Pipeline` compositions and the asyncio
:class:`~repro.serving.ResolutionServer` — each with its own options
plumbing.  The client folds them into modes of one context-managed object,
all driven by a single frozen :class:`~repro.api.config.RunConfig` and all
executing over engines leased from a shared
:class:`~repro.serving.host.EngineHost`:

* :meth:`resolve` — one entity, one result (serving-style dispatch);
* :meth:`resolve_stream` — an ordered stream with the engine's bounded
  in-flight window as backpressure;
* :meth:`pipeline` — arbitrary ``Source → Stage → Sink`` compositions whose
  resolve stage is the client's (used by ``repro pipeline``);
* :meth:`run_experiment` — the evaluation harness (framework or baselines)
  over a dataset or dataset stream;
* :meth:`serve` — the JSONL stdio/TCP serving loop.

When the config carries a :class:`~repro.api.store.ResultStore`, every mode
transparently skips entities whose ``(entity key, specification hash)`` is
already stored — a re-run performs zero solver calls for the stored prefix —
and fresh resolutions are upserted as they complete.  :meth:`results`
queries what past runs stored.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.config import RunConfig
from repro.api.store import ResultStore, StoredResult, open_result_store
from repro.core.errors import ReproError
from repro.core.retry import RetryPolicy
from repro.core.specification import Specification
from repro.pipeline.core import Pipeline, PipelineReport, Sink, Stage
from repro.resolution.framework import Oracle, ResolutionResult
from repro.serving.host import EngineHost

__all__ = ["ClientStats", "ResolutionClient", "ServeReport"]

#: Anything the resolve modes accept as one entity: a specification (its
#: ``name`` is the entity key) or an explicit ``(key, specification)`` pair.
EntityLike = Union[Specification, Tuple[Any, Specification]]

#: Builds the oracle of one item (``None`` = automatic resolution).
OracleFactory = Callable[[Any, Specification], Optional[Oracle]]


@dataclass
class ClientStats:
    """Snapshot of a client's lifetime counters (:meth:`ResolutionClient.stats`)."""

    #: Entities that went through any resolve mode (hits + engine calls).
    entities: int = 0
    #: Entities resolved by the leased engine.
    resolved: int = 0
    #: Entities answered straight from the result store.
    store_hits: int = 0
    #: One-shot engine calls retried by the client's retry policy.
    retries: int = 0
    #: Results (fresh or stored) carrying a quarantine ``failure`` marker.
    quarantined: int = 0
    #: This client's per-caller lease record (:class:`~repro.serving.host.LeaseInfo`
    #: as a dict) — empty until the first mode leases the engine.
    lease: Dict[str, Any] = field(default_factory=dict)
    #: The leased engine's counters at snapshot time.
    engine: Dict[str, float] = field(default_factory=dict)
    #: The host's aggregate lease counters.
    host: Dict[str, int] = field(default_factory=dict)
    #: The result store's counters, when one is attached.
    store: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-serializable representation."""
        record: Dict[str, Any] = {
            "entities": self.entities,
            "resolved": self.resolved,
            "store_hits": self.store_hits,
            "lease": dict(self.lease),
            "engine": dict(self.engine),
            "host": dict(self.host),
            "store": dict(self.store),
        }
        # Fault counters appear only when they fired (fault-free runs keep
        # their serialized stats byte-identical to earlier releases).
        if self.retries:
            record["retries"] = self.retries
        if self.quarantined:
            record["quarantined"] = self.quarantined
        return record


@dataclass
class ServeReport:
    """Outcome of one :meth:`ResolutionClient.serve` call."""

    #: Ordered responses written (stdio mode; 0 in TCP mode, where each
    #: connection counts its own).
    responses: int = 0
    #: The server's final statistics snapshot.
    stats: Any = None


class _ClientResolveStage(Stage):
    """The client's resolve stage: engine-ordered results with store skips.

    Items are ``(key, specification)`` pairs where *key* is any caller
    context (an entity, a name, …) to re-associate with the ordered results;
    *oracle_factory* builds the oracle for an item (``None`` = automatic
    resolution).  Items whose ``(entity key, spec hash)`` is already stored
    bypass the engine entirely and re-enter the output stream *in input
    order* between the engine's ordered results; misses are resolved through
    the client's leased engine and upserted as they complete.  Yields
    ``(key, result, seconds)`` triples — *seconds* is the per-entity
    wall-clock in sequential mode (timed from the task's hand-off, so it
    excludes upstream generation and linkage) and ``None`` for parallel or
    stored results.

    The engine's bounded in-flight window provides the pipeline's
    backpressure: the stage pulls new work from upstream only as the engine
    frees slots, so generation and linkage overlap with worker-side
    resolution while the working set stays capped at ``chunk_size ×
    max_inflight_chunks`` entities.  The keys of in-flight misses wait in a
    queue that window bounds; a run of store hits waits there until the next
    engine result releases it.
    """

    def __init__(
        self,
        client: "ResolutionClient",
        oracle_factory: Optional[OracleFactory] = None,
        *,
        reset_statistics: bool = True,
        name: str = "resolve",
    ) -> None:
        self.client = client
        self.oracle_factory = oracle_factory
        self.reset_statistics = reset_statistics
        self.name = name

    def process(
        self, stream: Iterator[Tuple[Any, Specification]]
    ) -> Iterator[Tuple[Any, ResolutionResult, Optional[float]]]:
        client = self.client
        engine = client._engine()
        store = client._store
        sequential = engine.workers <= 1
        # Entries in input order: ("hit", key, result) for store skips,
        # ("miss", key, entity_key, digest, submitted) for engine tasks.
        order: deque = deque()

        def tasks():
            for key, spec in stream:
                if store is not None:
                    entity_key = client._entity_key(key, spec)
                    digest = client.config.spec_hash(spec)
                    stored = store.get(entity_key, digest)
                    if stored is not None and client._serveable(stored):
                        client._count(hit=True, failure=getattr(stored, "failure", ""))
                        order.append(("hit", key, stored))
                        continue
                else:
                    entity_key = digest = None
                oracle = self.oracle_factory(key, spec) if self.oracle_factory else None
                order.append(("miss", key, entity_key, digest, time.perf_counter()))
                yield spec, oracle

        for result in engine.resolve_stream(
            tasks(), reset_statistics=self.reset_statistics
        ):
            finished = time.perf_counter()
            # Store hits queued ahead of this engine result come first —
            # that is their input position.
            while order and order[0][0] == "hit":
                _, key, stored = order.popleft()
                yield key, stored, None
            _, key, entity_key, digest, submitted = order.popleft()
            client._count(hit=False, failure=getattr(result, "failure", ""))
            if store is not None:
                store.put(entity_key, digest, result)
            yield key, result, (finished - submitted) if sequential else None
        # The engine exhausted the task stream, so any remaining entries are
        # trailing store hits.
        while order:
            _, key, stored = order.popleft()
            yield key, stored, None


class ResolutionClient:
    """Unified, context-managed entry point for every execution mode.

    Parameters
    ----------
    config:
        The frozen :class:`~repro.api.config.RunConfig`; defaults apply when
        omitted.
    host:
        Engine host to lease from.  ``None`` (the default) builds a private
        host closed with the client; pass a shared host so several clients
        (or client generations) reuse one warm pool.

    The engine lease is taken lazily on the first mode call and held until
    :meth:`close` — releasing it returns the engine warm to the host.  A
    store given as a path is opened and closed by the client; a store given
    as an instance is borrowed (the caller owns its lifetime).

    The client is *not* safe for concurrent calls from multiple threads
    except :meth:`resolve`, which dispatches through the engine's
    thread-safe serving entry point.  Across clients sharing one host (and
    therefore one hosted engine), concurrent accumulating streams are safe —
    the engine serialises sequential entities and lock-guards parallel
    accounting.  Only :meth:`run_experiment` (which resets engine statistics
    per run) must not overlap with other modes on the same engine key.
    """

    def __init__(self, config: Optional[RunConfig] = None, *, host: Optional[EngineHost] = None) -> None:
        self.config = config or RunConfig()
        self._host = host
        self._owns_host = host is None
        self._lease = None
        self._closed = False
        # resolve() may be called from many threads at once; the lock guards
        # the lazy (host, lease) setup and the counters so concurrent first
        # calls cannot double-lease (leaking an active lease in the host).
        self._lock = threading.Lock()
        self._entities = 0
        self._store_hits = 0
        self._retries = 0
        self._quarantined = 0
        self._retry_policy = (
            self.config.retry_policy if self.config.retry_policy is not None else RetryPolicy()
        )
        self._store: Optional[ResultStore] = None
        self._owns_store = False
        if self.config.store is not None:
            if isinstance(self.config.store, ResultStore):
                self._store = self.config.store
            else:
                self._store = open_result_store(self.config.store)
                self._owns_store = True

    # -- lifecycle -------------------------------------------------------------

    def __enter__(self) -> "ResolutionClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the engine lease; close owned host and store (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._lease is not None:
            self._lease.release()
            self._lease = None
        if self._owns_host and self._host is not None:
            self._host.close()
            self._host = None
        if self._owns_store and self._store is not None:
            self._store.close()
            self._store = None

    # -- shared infrastructure -------------------------------------------------

    @property
    def store(self) -> Optional[ResultStore]:
        """The attached result store (``None`` when the config has none)."""
        return self._store

    @property
    def engine(self):
        """The leased engine (``None`` before the first mode call)."""
        return self._lease.engine if self._lease is not None else None

    def _ensure_host(self) -> EngineHost:
        if self._closed:
            raise ReproError("the resolution client is closed")
        with self._lock:
            if self._host is None:
                self._host = EngineHost()
            return self._host

    def _engine(self):
        host = self._ensure_host()
        if self._lease is None:
            # Leasing can build and warm a pool; the host serialises
            # concurrent first leases of one key itself, so only the
            # client-side slot assignment needs the lock.
            lease = host.lease(
                self.config.options,
                workers=self.config.workers,
                chunk_size=self.config.chunk_size,
                max_inflight_chunks=self.config.max_inflight_chunks,
                scope=self.config.scope,
            )
            with self._lock:
                if self._lease is None:
                    self._lease = lease
                else:
                    lease.release()  # another thread won the race
        return self._lease.engine

    @staticmethod
    def _normalize(item: EntityLike) -> Tuple[Any, Specification]:
        if isinstance(item, Specification):
            return item.name, item
        if isinstance(item, (tuple, list)) and len(item) == 2 and isinstance(item[1], Specification):
            return item[0], item[1]
        raise ReproError(
            "expected a Specification or a (key, Specification) pair, "
            f"got {type(item).__name__}"
        )

    @staticmethod
    def _entity_key(key: Any, spec: Specification) -> str:
        """The store's entity key of one item (specification name first)."""
        return spec.name or str(key)

    def _count(self, hit: bool, failure: str = "") -> None:
        with self._lock:
            self._entities += 1
            if hit:
                self._store_hits += 1
            if failure:
                self._quarantined += 1

    def _serveable(self, stored: ResolutionResult) -> bool:
        """Whether a stored result may answer its entity on this run.

        Quarantined results (non-empty ``failure``) are served like any
        other by default — a poison entity stays contained across re-runs —
        unless ``config.retry_quarantined`` asks for another attempt, in
        which case they read as store misses.  Results stored by releases
        that predate the marker lack the attribute and always serve.
        """
        if not self.config.retry_quarantined:
            return True
        return not getattr(stored, "failure", "")

    def _note_retry(self, _attempt: int, _error: BaseException) -> None:
        with self._lock:
            self._retries += 1

    # -- mode 1: one-shot resolution -------------------------------------------

    def resolve(
        self,
        entity: EntityLike,
        oracle: Optional[Oracle] = None,
        *,
        encoder: Optional["IncrementalEncoder"] = None,
    ) -> ResolutionResult:
        """Resolve one entity; a stored result short-circuits the engine.

        Dispatches through :meth:`~repro.engine.ResolutionEngine.resolve_task`,
        so concurrent calls from several threads share the warm pool safely.
        A warm *encoder* (the CDC delta path — see :mod:`repro.cdc`) skips the
        store lookup: the caller passes it precisely because the stored result
        is stale.
        """
        key, spec = self._normalize(entity)
        entity_key = self._entity_key(key, spec)
        digest = self.config.spec_hash(spec)
        if self._store is not None and encoder is None:
            stored = self._store.get(entity_key, digest)
            if stored is not None and self._serveable(stored):
                self._count(hit=True, failure=getattr(stored, "failure", ""))
                return stored
        engine = self._engine()
        # The warm encoder is single-use: after a failed attempt its solver
        # session is in an unknown state, so retries re-encode from scratch.
        warm = [encoder]
        result = self._retry_policy.call(
            lambda: engine.resolve_task(
                spec, oracle, encoder=warm.pop() if warm else None
            ),
            on_retry=self._note_retry,
        )
        self._count(hit=False, failure=getattr(result, "failure", ""))
        if self._store is not None:
            self._store.put(entity_key, digest, result)
        return result

    # -- mode 2: ordered streaming ---------------------------------------------

    def resolve_stream(
        self,
        entities: Iterable[EntityLike],
        *,
        oracle_factory: Optional[OracleFactory] = None,
    ) -> Iterator[ResolutionResult]:
        """Resolve a stream of entities; yield results in input order.

        The engine's bounded in-flight window provides backpressure: the
        input is pulled only as capacity frees up, so an unbounded stream
        never materialises.  Statistics accumulate on the shared engine
        (like :meth:`resolve`) instead of resetting per call.

        Stored results are keyed by (entity, specification hash) only — the
        oracle is not part of the key.  When *oracle_factory* matters to the
        outcome, give each oracle configuration its own store (or clear it
        between runs); otherwise a later run inherits the earlier oracle's
        resolutions.
        """
        pairs = (self._normalize(item) for item in entities)
        stage = _ClientResolveStage(self, oracle_factory, reset_statistics=False)
        for _key, result, _seconds in stage.process(pairs):
            yield result

    # -- mode 3: pipeline compositions -----------------------------------------

    def resolve_stage(
        self,
        oracle_factory: Optional[OracleFactory] = None,
        *,
        reset_statistics: bool = True,
        name: str = "resolve",
    ) -> Stage:
        """The client's store-aware resolve stage for custom pipelines.

        Consumes ``(key, specification)`` items and yields ``(key, result,
        seconds)`` triples in input order (see :class:`_ClientResolveStage`
        for the contract).
        """
        return _ClientResolveStage(self, oracle_factory, reset_statistics=reset_statistics, name=name)

    def pipeline(
        self,
        source: Iterable[Any],
        *,
        pre_stages: Sequence[Stage] = (),
        sinks: Sequence[Sink] = (),
        oracle_factory: Optional[OracleFactory] = None,
    ) -> PipelineReport:
        """Run ``source → pre_stages… → resolve → sinks`` to exhaustion.

        *pre_stages* must leave the stream as ``(key, specification)`` items
        — e.g. streaming linkage followed by a keying map — exactly what the
        ``repro pipeline`` command feeds the resolve stage.
        """
        stage = _ClientResolveStage(self, oracle_factory)
        return Pipeline(source, [*pre_stages, stage], list(sinks)).run()

    # -- mode 4: experiments ---------------------------------------------------

    def run_experiment(
        self,
        dataset,
        *,
        sigma_fraction: float = 1.0,
        gamma_fraction: float = 1.0,
        oracle_factory: Optional[Callable[[Any], object]] = None,
        limit: Optional[int] = None,
        label: Optional[str] = None,
        keep_outcomes: bool = True,
        extra_sinks: Sequence[Sink] = (),
        baseline: Optional[str] = None,
        baseline_seed: int = 0,
        baseline_repetitions: int = 3,
    ):
        """Run the evaluation harness over a dataset (or dataset stream).

        The framework path (default) resolves every entity with the
        interactive framework — the oracle defaults to a
        :class:`~repro.evaluation.interaction.ReluctantOracle` bounded by
        ``config.options.max_rounds`` — scores it against the ground truth
        and folds an :class:`~repro.evaluation.experiment.ExperimentResult`.
        With a result store, already-stored entities skip the engine (their
        stored resolutions are re-scored), so a second run over the same
        dataset performs zero solver calls.  The store key covers the
        specification and the resolver options but *not* the oracle: an
        oracle-sensitivity study must use one store per oracle configuration
        (or none), or every variant replays the first oracle's resolutions.

        Engine statistics reset at the start of each experiment (the
        per-run counters land in ``result.engine``); a client interleaving
        :meth:`resolve` calls with experiments therefore sees lifetime
        totals only between runs.

        *baseline* switches to one of the traditional fusion baselines
        (``pick``/``vote``/``min``/``max``/``any``) run over a process pool
        of ``config.workers``; the result store does not apply there
        (baselines return bare tuples, not resolution results).
        """
        from repro.evaluation.experiment import (
            ExperimentResult,
            MetricsSink,
            ScoreStage,
            _baseline_entity_outcome,
            _BASELINES,
        )
        from repro.evaluation.interaction import ReluctantOracle
        from repro.pipeline.core import ParallelMapStage

        if baseline is not None:
            if baseline not in _BASELINES:
                raise ReproError(
                    f"unknown baseline {baseline!r}; choose from {sorted(_BASELINES)}"
                )
            result = ExperimentResult(
                label=label or f"{dataset.name}[{baseline}]", keep_outcomes=keep_outcomes
            )
            runs = baseline_repetitions if baseline in ("pick", "any") else 1
            tasks = (
                (baseline, entity, spec, baseline_seed, runs)
                for entity, spec in dataset.specifications(
                    sigma_fraction, gamma_fraction, limit=limit
                )
            )
            stage = ParallelMapStage(
                _baseline_entity_outcome, workers=self.config.workers, chunk_size=4
            )
            start = time.perf_counter()
            Pipeline(tasks, [stage], [MetricsSink(result), *extra_sinks]).run()
            result.wall_seconds = time.perf_counter() - start
            result.engine = {
                "entities": float(result.entities),
                "workers": float(self.config.workers),
                "parallel": 1.0 if self.config.workers > 1 else 0.0,
            }
            return result

        max_rounds = self.config.options.max_rounds
        result = ExperimentResult(
            label=label
            or f"{dataset.name}[Σ={sigma_fraction:.0%},Γ={gamma_fraction:.0%},rounds≤{max_rounds}]",
            keep_outcomes=keep_outcomes,
        )

        def oracle_for(entity, _spec) -> object:
            if oracle_factory is not None:
                return oracle_factory(entity)
            return ReluctantOracle(entity, max_rounds=max_rounds)

        pairs = dataset.specifications(sigma_fraction, gamma_fraction, limit=limit)
        engine = self._engine()
        # The lease usually arrives warm; a cold private host pays the pool
        # start here, outside the timed region.
        warmup = engine.warm_up()
        pipeline = Pipeline(
            pairs,
            [self.resolve_stage(oracle_for), ScoreStage(dataset.schema)],
            [MetricsSink(result), *extra_sinks],
        )
        start = time.perf_counter()
        pipeline.run()
        result.wall_seconds = time.perf_counter() - start
        result.engine = engine.statistics.as_dict()
        if self.config.workers > 1:
            result.engine["pool_warmup_seconds"] = warmup
            result.scheduling = engine.statistics.scheduling_detail()
        return result

    # -- mode 5: change-data-capture -------------------------------------------

    def apply_changes(
        self,
        feed,
        schema,
        *,
        sigma=(),
        gamma=(),
        cursor=None,
        max_events: Optional[int] = None,
        on_result=None,
    ):
        """Consume a change feed against this client's store (one-shot CDC).

        Builds a :class:`~repro.cdc.ChangeConsumer` over *feed* (a
        :class:`~repro.cdc.ChangeFeed` or an :func:`~repro.cdc.open_change_feed`
        target), replays it from *cursor* (a checkpoint path, for resumable
        consumption), applies all pending events — at most *max_events* — and
        returns the :class:`~repro.cdc.ConsumeReport`.  Affected entities are
        invalidated in the client's result store and re-resolved through the
        warm leased engine; see :mod:`repro.cdc` for the exactly-once
        contract.  For a long-lived tailing consumer, construct
        :class:`~repro.cdc.ChangeConsumer` directly and call ``consume()``
        per poll.
        """
        from repro.cdc.consumer import ChangeConsumer

        with ChangeConsumer(
            feed,
            self,
            schema,
            sigma=sigma,
            gamma=gamma,
            cursor=cursor,
            on_result=on_result,
        ) as consumer:
            return consumer.consume(max_events)

    # -- mode 6: serving -------------------------------------------------------

    def serve(
        self,
        spec_builder,
        *,
        lines=None,
        write=None,
        tcp: Optional[Tuple[str, int]] = None,
        include_stats: bool = False,
        checkpoint=None,
        checkpoint_every: int = 25,
        resume: bool = False,
        oracle_factory=None,
        on_ready: Optional[Callable[[Tuple[str, int]], None]] = None,
    ) -> ServeReport:
        """Run the serving loop over this client's host, store and config.

        Two transports, one server:

        * **stdio mode** (default) — *lines* is the JSONL request source (an
          open handle, iterable or async iterator) and *write* receives one
          encoded response line per request, in request order, with
          checkpoint/resume semantics per
          :meth:`~repro.serving.ResolutionServer.resolve_stream`;
        * **TCP mode** — *tcp* is the ``(host, port)`` endpoint; *on_ready*
          is called with the bound address once listening, and the call
          blocks until cancelled (Ctrl-C), each connection being its own
          ordered JSONL stream.

        The server leases its engine from the client's host (scoped by
        ``config.scope`` or, when that is empty, the builder's
        ``cache_key()``), and shares the client's result store: stored
        entities are answered without an engine call, fresh ones upserted.
        """
        if (tcp is None) == (lines is None and write is None):
            raise ReproError("serve() needs either tcp=(host, port) or lines=/write=")
        if tcp is None and (lines is None or write is None):
            raise ReproError("stdio serving needs both lines= and write=")
        return asyncio.run(
            self._serve_async(
                spec_builder,
                lines=lines,
                write=write,
                tcp=tcp,
                include_stats=include_stats,
                checkpoint=checkpoint,
                checkpoint_every=checkpoint_every,
                resume=resume,
                oracle_factory=oracle_factory,
                on_ready=on_ready,
            )
        )

    async def _serve_async(
        self,
        spec_builder,
        *,
        lines,
        write,
        tcp,
        include_stats,
        checkpoint,
        checkpoint_every,
        resume,
        oracle_factory,
        on_ready,
    ) -> ServeReport:
        from repro.serving.frontend import serve_jsonl, serve_tcp
        from repro.serving.server import ResolutionServer

        scope = self.config.scope
        if not scope and hasattr(spec_builder, "cache_key"):
            scope = spec_builder.cache_key()
        server = ResolutionServer(
            spec_builder,
            options=self.config.options,
            workers=self.config.workers,
            chunk_size=self.config.chunk_size,
            max_inflight_chunks=self.config.max_inflight_chunks,
            host=self._ensure_host(),
            oracle_factory=oracle_factory,
            max_inflight=self.config.max_inflight,
            scope=scope,
            result_store=self._store,
            result_hasher=(self.config.spec_hash if self._store is not None else None),
            retry_policy=self._retry_policy,
        )
        written = 0
        async with server:
            if tcp is not None:
                tcp_server = await serve_tcp(server, *tcp, include_stats=include_stats)
                if on_ready is not None:
                    bound = tcp_server.sockets[0].getsockname()
                    on_ready((bound[0], bound[1]))
                try:
                    async with tcp_server:
                        await tcp_server.serve_forever()
                except asyncio.CancelledError:  # pragma: no cover - signal-driven
                    pass
            else:
                written = await serve_jsonl(
                    server,
                    lines,
                    write,
                    include_stats=include_stats,
                    checkpoint=checkpoint,
                    checkpoint_every=checkpoint_every,
                    resume=resume,
                )
            stats = server.stats()
        return ServeReport(responses=written, stats=stats)

    # -- queries ---------------------------------------------------------------

    def results(self, entity_key: Optional[str] = None) -> List[StoredResult]:
        """Stored results of past runs (optionally for one entity key)."""
        if self._store is None:
            raise ReproError(
                "this client has no result store (set RunConfig.store to a "
                "ResultStore, a SQLite path or ':memory:')"
            )
        return self._store.results(entity_key)

    def stats(self) -> ClientStats:
        """Current statistics snapshot (client + lease + engine + store)."""
        snapshot = ClientStats(
            entities=self._entities,
            resolved=self._entities - self._store_hits,
            store_hits=self._store_hits,
            retries=self._retries,
            quarantined=self._quarantined,
        )
        if self._lease is not None:
            snapshot.lease = self._lease.info.as_dict()
            snapshot.engine = self._lease.engine.statistics.as_dict()
        if self._host is not None:
            snapshot.host = self._host.statistics()
        if self._store is not None:
            snapshot.store = self._store.statistics()
        return snapshot
