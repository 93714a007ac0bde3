"""Deterministic fault injection for the fault-tolerance stack.

Production failures — a pool worker OOM-killed mid-chunk, an entity whose
CNF never converges, a payload corrupted in flight — are rare and
non-deterministic, which makes the recovery paths the least-tested code
in exactly the systems that need them most.  This module turns those
failures into *reproducible inputs*: a :class:`FaultPlan` names the fault
and the precise, seeded point where it fires, and the execution tiers
call the tiny hooks below at their natural failure points.

Activation is either explicit (``faults.install(plan)`` in tests) or via
the ``REPRO_FAULTS`` environment variable holding ``plan.encode()`` JSON
— the env var is inherited by pool workers, so one setting drives the
whole process tree (bench and CLI use).  With no plan active every hook
is a cheap no-op.

Fault kinds
-----------
``kill_worker_on_chunk=N``
    The worker processing the engine's N-th submitted chunk exits hard
    (``os._exit``), breaking the process pool exactly once — retried
    chunks get fresh submission indices, so recovery is not re-faulted.
``raise_in_resolver="pattern"``
    Entities whose name matches the glob raise a retryable
    :class:`~repro.core.errors.EntityFailure` inside the resolver; with
    ``raise_times=N`` only the first N attempts fail (attempt counters
    are process-local), otherwise every attempt fails and the entity is
    driven into quarantine.
``crash_entity="pattern"``
    Matching entities raise :class:`InjectedCrash` — deliberately *not*
    an ``EntityFailure``, simulating an unannounced hard crash.
    ``raise_times`` bounds it the same way (each fault kind counts its
    attempts separately), which models a crash that heals on retry.
``slow_entity="pattern"``
    Matching entities sleep ``slow_seconds`` before resolving (stalls
    without failing; exercises wall-clock budgets and idle timeouts).
``corrupt_payload_on_chunk=N``
    The shipped constraint payload of submitted chunk N is truncated
    before unpickling, so the worker fails the chunk with a decode error.
``fail_shard=N``
    Serving-cluster worker N raises a retryable
    :class:`~repro.core.errors.EntityFailure` at every start; with
    ``raise_times=K`` only the first K incarnations fail (the worker heals
    as the cluster respawns it under its
    :class:`~repro.core.retry.RetryPolicy`), otherwise the worker is
    quarantined while the surviving workers keep serving.
``crash_consumer_on_event=N``
    A CDC :class:`~repro.cdc.consumer.ChangeConsumer` (or a cluster
    follower) raises :class:`InjectedCrash` while applying feed event N —
    *after* invalidation and re-resolution, *before* the cursor advances —
    the worst-case crash window for exactly-once apply.  ``raise_times``
    bounds it, so a resumed consumer replays event N and completes.
"""

from __future__ import annotations

import fnmatch
import json
import os
import time
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from repro.core.errors import EntityFailure, ReproError

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "InjectedCrash",
    "active_plan",
    "clear",
    "install",
    "replay_attempts",
]

#: Environment variable carrying an encoded :class:`FaultPlan`.
ENV_VAR = "REPRO_FAULTS"


class InjectedCrash(RuntimeError):
    """A hard injected failure (not an :class:`EntityFailure`).

    Models a crash the resolver never declared: the sequential path lets
    it propagate (like a real aborted process), while the engine's
    parallel supervision contains it via bisection and quarantine.
    """


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic description of which faults fire where.

    Entity patterns are :mod:`fnmatch` globs against the entity name;
    chunk indices count the engine's chunk submissions from 1 (retries
    and bisection submissions get fresh indices).  ``seed`` distinguishes
    otherwise-identical plans (e.g. CI matrix entries).
    """

    kill_worker_on_chunk: Optional[int] = None
    raise_in_resolver: Optional[str] = None
    raise_times: Optional[int] = None
    crash_entity: Optional[str] = None
    slow_entity: Optional[str] = None
    slow_seconds: float = 0.05
    corrupt_payload_on_chunk: Optional[int] = None
    fail_shard: Optional[int] = None
    crash_consumer_on_event: Optional[int] = None
    seed: int = 0

    def encode(self) -> str:
        """Compact JSON holding only the non-default fields (env-var friendly)."""
        payload = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value != spec.default:
                payload[spec.name] = value
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def decode(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`encode`; rejects unknown keys loudly."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(f"invalid fault plan {text!r}: {error}") from None
        if not isinstance(payload, dict):
            raise ReproError(f"invalid fault plan {text!r}: expected a JSON object")
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ReproError(f"invalid fault plan: unknown keys {', '.join(unknown)}")
        return cls(**payload)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan encoded in ``REPRO_FAULTS``, or ``None`` when unset/empty."""
        raw = os.environ.get(ENV_VAR, "")
        return cls.decode(raw) if raw else None


# -- activation ----------------------------------------------------------------

_INSTALLED: Optional[FaultPlan] = None
_ENV_CACHE: Tuple[str, Optional[FaultPlan]] = ("", None)
#: Process-local attempt counts per (fault kind, entity), for ``raise_times``.
_ATTEMPTS: Dict[Tuple[str, str], int] = {}


def _due(plan: FaultPlan, key: Tuple[str, str]) -> bool:
    """Bump *key*'s attempt counter; true while ``raise_times`` allows firing."""
    attempt = _ATTEMPTS.get(key, 0) + 1
    _ATTEMPTS[key] = attempt
    return plan.raise_times is None or attempt <= plan.raise_times


def install(plan: Optional[FaultPlan]) -> None:
    """Activate *plan* in this process (overrides ``REPRO_FAULTS``)."""
    global _INSTALLED
    _INSTALLED = plan
    _ATTEMPTS.clear()


def clear() -> None:
    """Deactivate any installed plan and forget attempt counters."""
    install(None)


def replay_attempts(kind: str, key: str, count: int) -> None:
    """Pre-charge *count* attempts against ``(kind, key)``.

    Attempt counters are process-local, but some retries cross a process
    boundary: a cluster worker that died to an injected fault is *respawned*,
    and the fresh process must count the dead incarnations' attempts or a
    ``raise_times``-bounded fault would fire forever.  The respawning parent
    passes the incarnation number; the child replays the prior attempts here
    before calling its hook.
    """
    if count > 0:
        key_pair = (kind, key)
        _ATTEMPTS[key_pair] = max(_ATTEMPTS.get(key_pair, 0), count)


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else the (cached) ``REPRO_FAULTS`` plan, else ``None``."""
    if _INSTALLED is not None:
        return _INSTALLED
    global _ENV_CACHE
    raw = os.environ.get(ENV_VAR, "")
    if raw != _ENV_CACHE[0]:
        _ENV_CACHE = (raw, FaultPlan.decode(raw) if raw else None)
    return _ENV_CACHE[1]


# -- injection hooks -----------------------------------------------------------


def on_entity(name: str) -> None:
    """Resolver-entry hook: slow down, fail retryably, or crash *name*."""
    plan = active_plan()
    if plan is None:
        return
    if plan.slow_entity and fnmatch.fnmatch(name, plan.slow_entity):
        time.sleep(plan.slow_seconds)
    if plan.crash_entity and fnmatch.fnmatch(name, plan.crash_entity):
        if _due(plan, ("crash", name)):
            raise InjectedCrash(f"injected crash while resolving {name!r}")
    if plan.raise_in_resolver and fnmatch.fnmatch(name, plan.raise_in_resolver):
        if _due(plan, ("raise", name)):
            attempt = _ATTEMPTS[("raise", name)]
            raise EntityFailure(
                f"injected resolver fault for {name!r} (attempt {attempt})",
                entity=name,
                reason="injected",
                retryable=True,
            )


def on_shard(shard_index: int) -> None:
    """Cluster worker-start hook: fail the doomed worker's start retryably."""
    plan = active_plan()
    if plan is not None and plan.fail_shard == shard_index:
        if _due(plan, ("shard", str(shard_index))):
            attempt = _ATTEMPTS[("shard", str(shard_index))]
            raise EntityFailure(
                f"injected shard fault for shard {shard_index} (attempt {attempt})",
                entity=f"shard:{shard_index}",
                reason="injected",
                retryable=True,
            )


def on_consumer_event(seq: int) -> None:
    """CDC consumer hook: crash while applying the doomed feed event.

    Fired after the event's invalidations and re-resolutions landed but
    before the consumer's cursor advances — a crash here is the strongest
    exactly-once test, because the resumed consumer must re-apply the event
    without double effects (idempotent invalidation + idempotent upserts).
    """
    plan = active_plan()
    if plan is not None and plan.crash_consumer_on_event == seq:
        if _due(plan, ("consumer", str(seq))):
            raise InjectedCrash(f"injected consumer crash at feed event {seq}")


def on_chunk(chunk_index: int) -> None:
    """Worker chunk-start hook: hard-exit the worker on the doomed chunk."""
    plan = active_plan()
    if plan is not None and plan.kill_worker_on_chunk == chunk_index:
        os._exit(17)


def corrupt_payload(payload: bytes, chunk_index: int) -> bytes:
    """Return *payload*, truncated when the plan corrupts this chunk."""
    plan = active_plan()
    if plan is not None and plan.corrupt_payload_on_chunk == chunk_index:
        return payload[:-1] if payload else b"\x00"
    return payload
