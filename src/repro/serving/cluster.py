"""Multi-process serving cluster: a frontdoor over N worker server processes.

One asyncio :class:`~repro.serving.server.ResolutionServer` over one engine is
the single-process ceiling (``bench_serving.py``).  This module is the
horizontal tier above it:

* **workers** — N child processes, each owning a private
  :class:`~repro.serving.host.EngineHost` + :class:`ResolutionServer` behind a
  localhost TCP listener speaking the existing JSONL wire (plus a tiny
  out-of-band control channel for ``{"op": "stats"}``);
* **frontdoor** — :class:`ServingCluster` routes each request to
  ``stable_key_shard(entity, N)`` — a consistent hash of the entity key, so
  every request for one entity lands on the same worker — and merges
  responses back in *input order*, so the merged stream is byte-identical to
  a single-server run;
* **admission control** — a global in-flight cap (queue-depth shedding) and
  per-tenant in-flight quotas; a request over budget is *shed* with an error
  record carrying ``retry_after`` instead of queueing without bound.  Batch
  streams (:meth:`ServingCluster.serve_lines`) apply backpressure up to the
  cap before shedding, so a well-behaved single stream is never shed and
  stays deterministic;
* **failure model** — a worker connection loss is retried under the
  cluster's :class:`~repro.core.retry.RetryPolicy`
  (stop-aware backoff, shard-salted jitter) by *respawning* the worker and
  re-sending every unanswered request — responses are delivered exactly once
  because an unanswered request has, by definition, not been merged.  A
  worker that stays dead past ``max_attempts`` becomes a ``"shard:N"``
  :class:`~repro.engine.supervision.QuarantineRecord`; its requests are
  answered with all-NULL failure fills and the surviving workers are
  untouched;
* **shared store** — workers may share one :class:`SqliteResultStore` file as
  a cross-process result cache (WAL mode + busy timeout make the concurrent
  writers safe), so an entity resolved by any incarnation of any worker is a
  store hit for every later one — the exactly-once resume story across
  process boundaries.

``python -m repro serve --cluster N`` is the operator surface.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import multiprocessing
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro import faults
from repro.core.errors import EntityFailure, ReproError
from repro.core.retry import RetryPolicy
from repro.datasets.base import stable_key_shard
from repro.engine.supervision import QuarantineRecord
from repro.serving.frontend import LineSource, _as_async_lines
from repro.serving.wire import (
    ResolveRequest,
    ResolveResponse,
    WireError,
    decode_request,
    encode_request,
    encode_response,
)

__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_RETRY_AFTER",
    "ServingCluster",
]

#: Default global in-flight cap of the frontdoor (queue-depth shedding point).
DEFAULT_QUEUE_DEPTH = 256

#: Seconds a shed client is told to wait before resubmitting.
DEFAULT_RETRY_AFTER = 0.05

#: The quarantine reason of a worker that died past its retry budget.
WORKER_LOST = "worker_lost"


def _preferred_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, inherits installed fault plans), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# -- the worker process --------------------------------------------------------


def _control_payload(line: str) -> Optional[Dict[str, Any]]:
    """The control payload of *line*, or ``None`` if it is not a control line.

    Only an ``"op"``-tagged object that does **not** decode as a resolve
    request is a control line: request decoding ignores unknown fields, so a
    well-formed request carrying an ``"op"`` key belongs to the ordered
    request stream exactly as it would on a single server.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict) or "op" not in payload:
        return None
    try:
        decode_request(line)
    except WireError:
        return payload
    return None


def _control_reply(server: Any, payload: Dict[str, Any]) -> str:
    """Answer one out-of-band ``{"op": ...}`` control line."""
    op = payload.get("op")
    if op == "stats":
        record = {"op": "stats", "stats": server.stats().as_dict()}
    elif op == "ping":
        record = {"op": "pong"}
    elif op == "invalidate":
        keys = payload.get("entities")
        if not isinstance(keys, list) or not all(isinstance(key, str) for key in keys):
            record = {"op": "invalidate", "error": "entities must be a list of strings"}
        else:
            record = {"op": "invalidate", "invalidated": server.invalidate(keys)}
    else:
        record = {"op": str(op), "error": f"unknown control op {op!r}"}
    return json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)


async def _run_worker(
    index: int,
    incarnation: int,
    spec_builder: Callable[[ResolveRequest], Any],
    config: Any,
    store_path: Optional[str],
    conn: Any,
) -> None:
    # Imports deferred so a spawn-context child only pays them once it runs.
    from repro import faults
    from repro.api.store import SqliteResultStore
    from repro.serving.frontend import serve_jsonl
    from repro.serving.server import ResolutionServer

    # Respawns are the cluster's retry attempts, but fault counters are
    # process-local: replay the dead incarnations' attempts so a
    # raise_times-bounded plan heals instead of firing forever.
    faults.replay_attempts("shard", str(index), incarnation - 1)
    faults.on_shard(index)  # an injected worker fault dies at startup

    store = SqliteResultStore(store_path) if store_path else None
    scope = config.scope or getattr(spec_builder, "cache_key", lambda: "")()
    server = ResolutionServer(
        spec_builder,
        options=config.options,
        workers=config.workers,
        chunk_size=config.chunk_size,
        max_inflight_chunks=config.max_inflight_chunks,
        max_inflight=config.max_inflight,
        scope=scope,
        result_store=store,
        result_hasher=config.spec_hash if store is not None else None,
        retry_policy=config.retry_policy,
    )

    handlers: "set[asyncio.Task[None]]" = set()

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            handlers.add(task)
            task.add_done_callback(handlers.discard)

        async def write(record: str) -> None:
            writer.write(record.encode("utf-8"))
            await writer.drain()

        async def lines():
            # Control lines are answered inline and never enter the ordered
            # request stream, so they cannot perturb response ordering.  A
            # line that decodes as a resolve request is always a request —
            # the single server ignores unknown fields, so an ``"op"`` key
            # on a well-formed request must not hijack it into the control
            # channel.
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                text = raw.decode("utf-8")
                stripped = text.strip()
                if stripped:
                    control = _control_payload(stripped)
                    if control is not None:
                        await write(_control_reply(server, control) + "\n")
                        continue
                yield text

        try:
            await serve_jsonl(server, lines(), write)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def watch_parent() -> None:
        # Any message — or the parent dying and closing its pipe end — means
        # this worker must wind down; orphans never outlive the frontdoor.
        try:
            conn.recv()
        except (EOFError, OSError):
            pass
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    try:
        async with server:
            tcp = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            threading.Thread(
                target=watch_parent, name=f"repro-cluster-w{index}", daemon=True
            ).start()
            conn.send(("ready", port))
            async with tcp:
                await stop.wait()
            # The frontdoor has closed (or is closing) its connections, so
            # every handler is about to see EOF; draining them here keeps the
            # loop teardown from cancelling tasks mid-write (which asyncio
            # logs noisily).
            if handlers:
                _done, late = await asyncio.wait(set(handlers), timeout=5.0)
                for stray in late:
                    stray.cancel()
                if late:
                    await asyncio.gather(*late, return_exceptions=True)
    finally:
        if store is not None:
            store.close()


def _worker_main(
    index: int,
    incarnation: int,
    spec_builder: Any,
    config: Any,
    store_path: Optional[str],
    conn: Any,
) -> None:
    """Child-process entry point: run one worker until told to stop."""
    try:
        asyncio.run(_run_worker(index, incarnation, spec_builder, config, store_path, conn))
    except EntityFailure:
        # An injected worker fault: die like a crashed process (the parent
        # sees the exit, not the exception) without a noisy traceback.
        sys.exit(1)
    except KeyboardInterrupt:  # pragma: no cover - operator Ctrl-C
        sys.exit(130)


# -- the frontdoor -------------------------------------------------------------


@dataclass
class _Pending:
    """One routed request awaiting its worker's response line."""

    line: str
    entity: str
    request_id: str
    tenant: str
    future: "asyncio.Future[str]"


@dataclass
class _Shard:
    """Frontdoor-side state of one worker process."""

    index: int
    process: Any = None
    conn: Any = None
    port: int = 0
    reader: Optional[asyncio.StreamReader] = None
    writer: Optional[asyncio.StreamWriter] = None
    reader_task: Optional["asyncio.Task[None]"] = None
    pending: Deque[_Pending] = field(default_factory=deque)
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    connected: bool = False
    recovering: bool = False
    #: Worker incarnations spawned so far == the shard's attempt count.
    incarnation: int = 0
    retries: int = 0
    routed: int = 0
    failed: str = ""


class ServingCluster:
    """N worker server processes behind one routing, admission-controlled door.

    Parameters
    ----------
    spec_builder:
        The request-to-specification factory every worker serves — typically
        a :class:`~repro.serving.wire.SpecificationBuilder`.  Must be
        picklable (it crosses the process boundary).
    config:
        The per-worker :class:`~repro.api.config.RunConfig` (engine shape,
        resolver options, retry policy).  ``config.store`` — when it is a
        path — becomes the shared cross-process store.
    workers:
        Number of worker processes (= shards of the key space).
    store:
        Path of the shared :class:`~repro.api.store.SqliteResultStore`;
        overrides ``config.store``.  Store *instances* are rejected: a live
        connection cannot cross ``fork``/``spawn``, only a WAL file can be
        shared.
    max_queue_depth / tenant_quota:
        Admission control: the global in-flight cap (shedding point for
        open-loop submitters, backpressure point for batch streams) and the
        per-tenant in-flight quota (``None`` = no per-tenant limit).
    retry_after:
        Seconds a shed client is told to wait (the ``retry_after`` field of
        the shed error record).
    retry_policy:
        Worker respawn/reconnect schedule; defaults to ``config.retry_policy``
        or :class:`RetryPolicy` defaults.  Backoffs are shard-salted and
        stop-aware.
    partitioner:
        Entity-key router, ``key -> shard index``; defaults to
        :func:`~repro.datasets.base.stable_key_shard`.
    """

    #: Seconds to wait for a spawned worker to report its port.
    SPAWN_TIMEOUT = 120.0

    def __init__(
        self,
        spec_builder: Callable[[ResolveRequest], Any],
        config: Any = None,
        *,
        workers: int = 2,
        store: Optional[Any] = None,
        max_queue_depth: int = DEFAULT_QUEUE_DEPTH,
        tenant_quota: Optional[int] = None,
        retry_after: float = DEFAULT_RETRY_AFTER,
        retry_policy: Optional[RetryPolicy] = None,
        partitioner: Optional[Callable[[str, int], int]] = None,
    ) -> None:
        from repro.api.config import RunConfig
        from repro.api.store import ResultStore

        if workers < 1:
            raise ReproError(f"cluster workers must be >= 1, got {workers}")
        if max_queue_depth < 1:
            raise ReproError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if tenant_quota is not None and tenant_quota < 1:
            raise ReproError(f"tenant_quota must be >= 1, got {tenant_quota}")
        if retry_after <= 0:
            raise ReproError(f"retry_after must be positive, got {retry_after}")
        config = config if config is not None else RunConfig()
        target = store if store is not None else config.store
        if isinstance(target, ResultStore):
            raise ReproError(
                "cluster workers share a store by file path; a live ResultStore "
                "instance cannot cross the process boundary"
            )
        if target is not None and str(target) == ":memory:":
            raise ReproError(
                "a ':memory:' store is per-process and cannot be shared by "
                "cluster workers; use a SQLite file path"
            )
        self.spec_builder = spec_builder
        self.config = replace(config, store=None)
        self.num_workers = workers
        self.store_path = str(target) if target is not None else None
        self.max_queue_depth = max_queue_depth
        self.tenant_quota = tenant_quota
        self.retry_after = retry_after
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else (config.retry_policy or RetryPolicy())
        )
        self._partitioner = partitioner or stable_key_shard
        self._attributes: Tuple[str, ...] = tuple(
            getattr(getattr(spec_builder, "schema", None), "attribute_names", ())
        )
        self._context = _preferred_context()
        self._shards = [_Shard(index=i) for i in range(workers)]
        self.quarantine: List[QuarantineRecord] = []
        self._started = False
        self._closing = False
        self._closed_event: Optional[asyncio.Event] = None
        self._capacity: Optional[asyncio.Event] = None
        self._inflight = 0
        self._tenant_inflight: Dict[str, int] = {}
        self._shed: Dict[str, int] = {"queue": 0, "tenant": 0}
        self._follower: Optional[Dict[str, Any]] = None

    # -- lifecycle -------------------------------------------------------------

    async def __aenter__(self) -> "ServingCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    async def start(self) -> None:
        """Spawn and connect every worker; failures enter the retry path."""
        if self._started:
            raise ReproError("a ServingCluster is single-use; build a new one")
        self._started = True
        self._closed_event = asyncio.Event()
        self._capacity = asyncio.Event()
        self._capacity.set()
        # Spawn all processes first so their engine warmups overlap.
        for shard in self._shards:
            self._spawn_process(shard)
        for shard in self._shards:
            if not await self._attach(shard):
                await self._recover(shard, ReproError(f"worker {shard.index} failed to start"))

    async def shutdown(self) -> None:
        """Stop every worker, reap the processes, fail leftover futures."""
        if not self._started or self._closing:
            return
        self._closing = True
        assert self._closed_event is not None
        self._closed_event.set()
        for shard in self._shards:
            if shard.reader_task is not None:
                shard.reader_task.cancel()
                shard.reader_task = None
            if shard.writer is not None:
                shard.writer.close()
                shard.writer = None
            shard.connected = False
        await asyncio.get_running_loop().run_in_executor(None, self._reap_all)
        for shard in self._shards:
            self._fill_pending(shard, "shutdown", shard.incarnation)
        if self._follower is not None and self._follower["owned"]:
            self._follower["feed"].close()

    def _reap_all(self) -> None:
        for shard in self._shards:
            if shard.conn is not None:
                try:
                    shard.conn.send("stop")
                except (OSError, BrokenPipeError, ValueError):
                    pass
            if shard.process is not None and shard.process.is_alive():
                shard.process.join(timeout=5.0)
        for shard in self._shards:
            process = shard.process
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
                    process.join(timeout=1.0)
            if shard.conn is not None:
                shard.conn.close()
                shard.conn = None
            shard.process = None

    # -- spawning and recovery -------------------------------------------------

    def _spawn_process(self, shard: _Shard) -> None:
        shard.incarnation += 1
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(
                shard.index,
                shard.incarnation,
                self.spec_builder,
                self.config,
                self.store_path,
                child_conn,
            ),
            name=f"repro-cluster-worker-{shard.index}",
        )
        process.start()
        child_conn.close()
        shard.process = process
        shard.conn = parent_conn

    def _await_ready(self, shard: _Shard) -> Optional[int]:
        """Block (executor-side) until the worker reports its port, or fails."""
        deadline = time.monotonic() + self.SPAWN_TIMEOUT
        while time.monotonic() < deadline:
            try:
                if shard.conn.poll(0.05):
                    message = shard.conn.recv()
                    if isinstance(message, tuple) and message[0] == "ready":
                        return int(message[1])
                    return None
            except (EOFError, OSError):
                return None
            if shard.process is None or not shard.process.is_alive():
                return None
        return None

    async def _attach(self, shard: _Shard) -> bool:
        """Wait for the worker's port, connect, and re-send unanswered lines."""
        loop = asyncio.get_running_loop()
        port = await loop.run_in_executor(None, self._await_ready, shard)
        if port is None:
            return False
        shard.port = port
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
        except OSError:
            return False
        async with shard.lock:
            shard.reader = reader
            shard.writer = writer
            if shard.pending:
                # Exactly-once replay: everything unanswered is re-sent in
                # order.  The old incarnation never merged these, and the
                # shared store makes re-resolving already-stored ones a hit.
                for item in shard.pending:
                    writer.write((item.line + "\n").encode("utf-8"))
                try:
                    await writer.drain()
                except (OSError, ConnectionResetError):
                    return False
            shard.connected = True
            shard.reader_task = asyncio.create_task(self._read_loop(shard))
        return True

    async def _read_loop(self, shard: _Shard) -> None:
        """Pop one pending request per response line, in send order."""
        error: Optional[BaseException] = None
        try:
            while True:
                raw = await shard.reader.readline()
                if not raw:
                    error = ConnectionResetError("worker closed the connection")
                    break
                line = raw.decode("utf-8").strip()
                if not line or not shard.pending:
                    continue
                item = shard.pending.popleft()
                self._resolve_future(item.future, line)
        except asyncio.CancelledError:
            raise
        except (OSError, ConnectionResetError) as exc:
            error = exc
        if not self._closing:
            await self._recover(shard, error)

    async def _recover(self, shard: _Shard, error: Optional[BaseException]) -> None:
        """Respawn a lost worker under the retry policy, or quarantine it."""
        async with shard.lock:
            if shard.failed or shard.recovering or self._closing:
                return
            shard.recovering = True
            shard.connected = False
            shard.reader_task = None
            if shard.writer is not None:
                shard.writer.close()
                shard.writer = None
        try:
            while True:
                if shard.incarnation >= self.retry_policy.max_attempts:
                    async with shard.lock:
                        self._quarantine(shard, error)
                    return
                shard.retries += 1
                backoff = self.retry_policy.delay(
                    shard.incarnation, salt=f"shard:{shard.index}"
                )
                if await self._stopped_during(backoff):
                    return
                await asyncio.get_running_loop().run_in_executor(
                    None, self._reap_one, shard
                )
                self._spawn_process(shard)
                if await self._attach(shard):
                    return
                error = ReproError(
                    f"worker {shard.index} incarnation {shard.incarnation} failed to start"
                )
        finally:
            shard.recovering = False

    async def _stopped_during(self, seconds: float) -> bool:
        """Stop-aware backoff: true when the cluster closed during the wait."""
        assert self._closed_event is not None
        if seconds <= 0:
            return self._closing
        try:
            await asyncio.wait_for(self._closed_event.wait(), timeout=seconds)
            return True
        except asyncio.TimeoutError:
            return self._closing

    def _reap_one(self, shard: _Shard) -> None:
        process = shard.process
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)
        if shard.conn is not None:
            shard.conn.close()
            shard.conn = None
        shard.process = None

    def _quarantine(self, shard: _Shard, error: Optional[BaseException]) -> None:
        reason = error.reason if isinstance(error, EntityFailure) else WORKER_LOST
        shard.failed = reason
        self.quarantine.append(
            QuarantineRecord(
                entity=f"shard:{shard.index}",
                reason=reason,
                attempts=shard.incarnation,
                error=str(error or ""),
            )
        )
        self._fill_pending(shard, reason, shard.incarnation)

    def _fill_pending(self, shard: _Shard, reason: str, attempts: int) -> None:
        while shard.pending:
            item = shard.pending.popleft()
            self._resolve_future(
                item.future, self._failure_line(item.entity, item.request_id, reason, attempts)
            )

    def _resolve_future(self, future: "asyncio.Future[str]", line: str) -> None:
        if not future.done():
            future.set_result(line)

    def _failure_line(
        self, entity: str, request_id: str, reason: str, attempts: int
    ) -> str:
        """The all-NULL failure fill of a quarantined worker's request, in wire form."""
        response = ResolveResponse(
            entity=entity,
            valid=False,
            complete=False,
            rounds=0,
            resolved={attribute: None for attribute in self._attributes},
            id=request_id,
            failure=reason,
            attempts=attempts,
        )
        return encode_response(response)

    # -- admission control and routing -----------------------------------------

    def _require_running(self) -> None:
        if not self._started or self._closing:
            raise ReproError("the serving cluster is not accepting requests")

    def _admission_verdict(self, tenant: str) -> Optional[str]:
        if self._inflight >= self.max_queue_depth:
            return "queue"
        if (
            self.tenant_quota is not None
            and self._tenant_inflight.get(tenant, 0) >= self.tenant_quota
        ):
            return "tenant"
        return None

    def _acquire(self, tenant: str) -> None:
        self._inflight += 1
        self._tenant_inflight[tenant] = self._tenant_inflight.get(tenant, 0) + 1
        if self._inflight >= self.max_queue_depth and self._capacity is not None:
            self._capacity.clear()

    def _release(self, tenant: str) -> None:
        self._inflight -= 1
        count = self._tenant_inflight.get(tenant, 1) - 1
        if count > 0:
            self._tenant_inflight[tenant] = count
        else:
            self._tenant_inflight.pop(tenant, None)
        if self._inflight < self.max_queue_depth and self._capacity is not None:
            self._capacity.set()

    def _shed_line(self, request: ResolveRequest, verdict: str) -> str:
        self._shed[verdict] += 1
        what = "cluster queue is full" if verdict == "queue" else "tenant quota exhausted"
        response = ResolveResponse(
            entity=request.entity,
            valid=False,
            complete=False,
            rounds=0,
            resolved={},
            id=request.id,
            error=f"overloaded: {what}; retry after {self.retry_after:g}s",
            retry_after=self.retry_after,
        )
        return encode_response(response)

    def shard_of(self, entity: str) -> int:
        """The worker index *entity* routes to (the consistent hash)."""
        index = self._partitioner(entity, self.num_workers)
        if not 0 <= index < self.num_workers:
            raise ReproError(
                f"partitioner sent {entity!r} to shard {index}, "
                f"outside 0..{self.num_workers - 1}"
            )
        return index

    async def submit_request(
        self,
        request: ResolveRequest,
        *,
        tenant: str = "",
        raw_line: Optional[str] = None,
    ) -> Tuple[str, Any]:
        """Route one request through admission control.

        Returns ``("accepted", future)`` — the future resolves to the
        response *line* — or ``("shed", line)`` with the retry-after error
        record.  Open-loop callers (the bench, a future network listener)
        call this at arrival time and observe shedding; batch streams should
        wait for capacity first (:meth:`serve_lines` does).
        """
        self._require_running()
        verdict = self._admission_verdict(tenant)
        if verdict is not None:
            return "shed", self._shed_line(request, verdict)
        shard = self._shards[self.shard_of(request.entity)]
        line = raw_line if raw_line is not None else encode_request(request)
        future: "asyncio.Future[str]" = asyncio.get_running_loop().create_future()
        item = _Pending(
            line=line,
            entity=request.entity,
            request_id=request.id,
            tenant=tenant,
            future=future,
        )
        self._acquire(tenant)
        future.add_done_callback(lambda _f: self._release(tenant))
        shard.routed += 1
        async with shard.lock:
            if shard.failed:
                self._resolve_future(
                    future,
                    self._failure_line(
                        item.entity, item.request_id, shard.failed, shard.incarnation
                    ),
                )
                return "accepted", future
            shard.pending.append(item)
            if shard.connected and shard.writer is not None:
                try:
                    shard.writer.write((line + "\n").encode("utf-8"))
                    await shard.writer.drain()
                except (OSError, ConnectionResetError):
                    # The reader task sees the same broken connection and
                    # recovery re-sends everything still pending.
                    pass
        return "accepted", future

    async def resolve_one(
        self, request: ResolveRequest, *, tenant: str = ""
    ) -> ResolveResponse:
        """Resolve a single request; shed responses come back as errors."""
        from repro.serving.wire import decode_response

        status, outcome = await self.submit_request(request, tenant=tenant)
        line = outcome if status == "shed" else await outcome
        return decode_response(line)

    # -- the batch frontdoor ---------------------------------------------------

    async def serve_lines(
        self,
        lines: LineSource,
        write: Callable[[str], Any],
        *,
        final_stats: bool = False,
    ) -> int:
        """Drive one JSONL stream through the cluster; return responses written.

        The contract mirrors :func:`~repro.serving.frontend.serve_jsonl`:
        responses for well-formed requests are written *in request order* —
        byte-identical to a single server over the same stream — while
        malformed lines, ``{"op": "stats"}`` control lines and shed notices
        are answered promptly out of band.  The producer waits for admission
        capacity before submitting (backpressure, not shedding), so a single
        batch stream is only ever shed on tenant-quota violations.

        With ``final_stats=True`` one aggregated ``{"op": "stats"}`` record
        is appended after the ordered stream ends.
        """
        self._require_running()

        async def emit(record: str) -> None:
            result = write(record)
            if inspect.isawaitable(result):
                await result

        ordered: "asyncio.Queue[Any]" = asyncio.Queue()
        out_of_band: "list[asyncio.Task[None]]" = []
        done_marker = object()

        async def drain() -> int:
            count = 0
            while True:
                entry = await ordered.get()
                if entry is done_marker:
                    return count
                line = await entry
                await emit(line + "\n")
                count += 1

        drainer = asyncio.create_task(drain())
        try:
            async for line in _as_async_lines(lines):
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    request = decode_request(stripped)
                except WireError as error:
                    # Not a request: either an out-of-band control line or a
                    # malformed line that earns the same error record a
                    # single server would emit.
                    control = _control_payload(stripped)
                    if control is not None:
                        out_of_band.append(
                            asyncio.create_task(self._answer_control(control, emit))
                        )
                        continue
                    record = encode_response(
                        ResolveResponse(
                            entity="",
                            valid=False,
                            complete=False,
                            rounds=0,
                            resolved={},
                            error=str(error),
                        )
                    )
                    out_of_band.append(asyncio.create_task(emit(record + "\n")))
                    continue
                tenant = ""
                try:
                    payload = json.loads(stripped)
                except json.JSONDecodeError:  # pragma: no cover - decoded above
                    payload = None
                if isinstance(payload, dict):
                    tenant = str(payload.get("tenant", ""))
                # Batch backpressure: wait for *global* capacity instead of
                # shedding our own well-ordered stream; only the per-tenant
                # quota can shed a batch request.
                assert self._capacity is not None
                await self._capacity.wait()
                status, outcome = await self.submit_request(
                    request, tenant=tenant, raw_line=stripped
                )
                if status == "shed":
                    out_of_band.append(asyncio.create_task(emit(outcome + "\n")))
                else:
                    ordered.put_nowait(outcome)
        finally:
            ordered.put_nowait(done_marker)
            written = await drainer
            if out_of_band:
                await asyncio.gather(*out_of_band, return_exceptions=True)
        if final_stats:
            await self._answer_control({"op": "stats"}, emit)
        return written

    async def _answer_control(
        self, payload: Dict[str, Any], emit: Callable[[str], Any]
    ) -> None:
        op = payload.get("op")
        if op == "stats":
            record: Dict[str, Any] = {"op": "stats", "cluster": await self.stats()}
        elif op == "ping":
            record = {"op": "pong", "workers": self.num_workers}
        else:
            record = {"op": str(op), "error": f"unknown control op {op!r}"}
        await emit(json.dumps(record, sort_keys=True, separators=(",", ":"), default=str) + "\n")

    # -- change-feed following (CDC) -------------------------------------------

    async def follow(
        self,
        feed: Any = None,
        *,
        cursor: Any = None,
        max_events: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Apply pending change-feed events through the cluster (one poll).

        The frontdoor tails *feed* (a :class:`~repro.cdc.ChangeFeed` or an
        :func:`~repro.cdc.open_change_feed` target): for each pending tuple
        event it tells the *owning* worker — the same
        ``stable_key_shard`` routing requests use — to invalidate the
        entity's shared-store entries over the control channel, then submits
        a fresh :class:`ResolveRequest` with the entity's full current rows,
        so the re-resolution runs on that worker's warm engine and lands in
        the shared store.  *cursor* (a checkpoint path) makes the follower
        resumable with the same replay-plus-idempotence contract as
        :class:`~repro.cdc.ChangeConsumer`.

        The first call attaches the follower (deriving schema and Σ ∪ Γ from
        the cluster's ``spec_builder``); later calls may omit *feed* to poll
        again.  ``constraint_changed`` events are rejected with
        :class:`ReproError`: workers hold a fixed pickled builder, so a
        constraint edit requires restarting the cluster with the updated
        constraint file.

        Returns the counters of *this* poll (events applied, entities
        re-resolved, store rows invalidated, current position); lifetime
        totals and feed lag appear under ``"cdc"`` in :meth:`stats`.
        """
        from repro.cdc.feed import ChangeFeed, ConstraintChanged, open_change_feed
        from repro.cdc.impact import RegistryState
        from repro.pipeline.checkpoint import Checkpoint

        self._require_running()
        follower = self._follower
        if follower is None:
            if feed is None:
                raise ReproError("the first follow() call must name a change feed")
            schema = getattr(self.spec_builder, "schema", None)
            if schema is None:
                raise ReproError(
                    "follow() needs a spec_builder exposing schema and constraints "
                    "(a SpecificationBuilder)"
                )
            state = RegistryState(
                schema,
                tuple(getattr(self.spec_builder, "currency_constraints", ())),
                tuple(getattr(self.spec_builder, "cfds", ())),
            )
            checkpoint = (
                cursor
                if cursor is None or isinstance(cursor, Checkpoint)
                else Checkpoint(cursor)
            )
            follower = {
                "feed": feed if isinstance(feed, ChangeFeed) else open_change_feed(feed),
                "owned": not isinstance(feed, ChangeFeed),
                "state": state,
                "cursor": checkpoint,
                "position": 0,
                "applied": 0,
                "re_resolved": 0,
                "invalidated": 0,
            }
            if checkpoint is not None:
                data = checkpoint.load()
                processed = int(data["processed"]) if data else 0
                # The limit bounds the read; the check stops at the cursor
                # even where sequence numbers skip.
                for record in follower["feed"].events(limit=max(0, processed)):
                    if record.seq > processed:
                        break
                    state.apply(record.event)
                    follower["position"] = record.seq
            self._follower = follower

        state = follower["state"]
        applied = re_resolved = invalidated = 0
        for record in follower["feed"].events(
            after=follower["position"], limit=max_events
        ):
            event = record.event
            if isinstance(event, ConstraintChanged):
                raise ReproError(
                    "constraint_changed cannot be applied through a running "
                    "cluster: workers hold a fixed constraint set — restart "
                    "the cluster with the updated constraint file"
                )
            impact = state.apply(event)
            for entity in impact.removed + impact.affected:
                invalidated += await self._invalidate_entity(entity)
            for entity in impact.affected:
                request = ResolveRequest(
                    entity=entity,
                    rows=[dict(row) for row in state.rows[entity]],
                    id=f"cdc-{record.seq}",
                )
                assert self._capacity is not None
                await self._capacity.wait()
                status, outcome = await self.submit_request(request)
                if status == "shed":
                    raise ReproError(f"cdc re-resolution was shed: {outcome}")
                await outcome
                re_resolved += 1
            faults.on_consumer_event(record.seq)
            follower["position"] = record.seq
            applied += 1
            if follower["cursor"] is not None:
                follower["cursor"].save(follower["position"])
        follower["applied"] += applied
        follower["re_resolved"] += re_resolved
        follower["invalidated"] += invalidated
        report: Dict[str, Any] = {
            "applied": applied,
            "position": follower["position"],
        }
        if re_resolved:
            report["re_resolved"] = re_resolved
        if invalidated:
            report["invalidated"] = invalidated
        return report

    async def _invalidate_entity(self, entity: str) -> int:
        """Tell the entity's owning worker to drop its stored results."""
        shard = self._shards[self.shard_of(entity)]
        reply = await self._worker_control(
            shard, {"op": "invalidate", "entities": [entity]}
        )
        if reply is None:
            return 0
        count = reply.get("invalidated", 0)
        return count if isinstance(count, int) else 0

    # -- observability ---------------------------------------------------------

    async def stats(self) -> Dict[str, Any]:
        """Aggregated cluster counters plus each live worker's ServerStats.

        The per-shard entries mirror ``ClientStats.shards`` (entities,
        attempts, retries, failed) and embed the worker's own
        :class:`~repro.serving.server.ServerStats` — lease info, store
        counters, engine counters — fetched over the control channel.
        """
        shards: List[Dict[str, Any]] = []
        for shard in self._shards:
            entry: Dict[str, Any] = {
                "index": shard.index,
                "entities": shard.routed,
                "attempts": shard.incarnation,
            }
            if shard.retries:
                entry["retries"] = shard.retries
            if shard.failed:
                entry["failed"] = shard.failed
            elif shard.connected:
                worker_stats = await self._query_worker_stats(shard)
                if worker_stats is not None:
                    entry["server"] = worker_stats
            shards.append(entry)
        payload = {
            "workers": self.num_workers,
            "routed": sum(shard.routed for shard in self._shards),
            "inflight": self._inflight,
            "shed": dict(self._shed),
            "quarantine": [record.as_dict() for record in self.quarantine],
            "shards": shards,
        }
        # Only a cluster actually following a change feed reports CDC lag;
        # plain serving runs keep their golden stats records byte-identical.
        if self._follower is not None:
            from repro.cdc.consumer import feed_status

            follower = self._follower
            cdc = feed_status(follower["feed"], follower["position"])
            for key in ("applied", "re_resolved", "invalidated"):
                if follower[key]:
                    cdc[key] = follower[key]
            payload["cdc"] = cdc
        return payload

    async def _worker_control(
        self, shard: _Shard, payload: Dict[str, Any], timeout: float = 30.0
    ) -> Optional[Dict[str, Any]]:
        """One control round-trip on a *dedicated* connection to a worker.

        The persistent request connection is strictly ordered (the read loop
        pops one pending request per response line), so out-of-band control
        ops must never ride it; each call opens its own short-lived
        connection, exactly like an external operator would.  Returns the
        decoded reply, or ``None`` when the worker is unreachable.
        """
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", shard.port)
        except OSError:
            return None
        try:
            line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            writer.write((line + "\n").encode("utf-8"))
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), timeout=timeout)
            reply = json.loads(raw.decode("utf-8"))
            return reply if isinstance(reply, dict) else None
        except (OSError, ValueError, asyncio.TimeoutError):
            return None
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _query_worker_stats(self, shard: _Shard) -> Optional[Dict[str, Any]]:
        """Fetch one worker's ServerStats over a dedicated control connection."""
        reply = await self._worker_control(shard, {"op": "stats"})
        if reply is None:
            return None
        stats = reply.get("stats")
        return stats if isinstance(stats, dict) else None
