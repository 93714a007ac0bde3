"""Run configuration of the unified API facade.

Every execution mode of the system — one-shot resolution, ordered streams,
dataset experiments, serving — used to carry its own options plumbing
(resolver options here, pool shape there, serving caps in a third place).
:class:`RunConfig` is the one frozen, validated object that replaces them:
construct it once, hand it to a :class:`~repro.api.client.ResolutionClient`,
and every mode derives its engine lease, backpressure caps and result-store
keys from it.

Two digests anchor the config in the rest of the system, both following the
:class:`~repro.serving.wire.SpecificationBuilder` conventions (canonical JSON
— sorted keys, fixed separators — under SHA-1):

* :meth:`RunConfig.cache_key` — the *structural* digest of the resolver
  options plus pool shape (plus the optional workload scope).  Two configs
  built alike digest equally, so clients configured alike share one warm
  engine in the :class:`~repro.serving.host.EngineHost`.
* :func:`specification_hash` — the digest of one entity's specification
  (schema, observed rows, Σ ∪ Γ) plus the result-affecting resolver options.
  Together with the entity key it forms the idempotent upsert key of the
  :class:`~repro.api.store.ResultStore`, which is what lets a re-run skip
  entities whose specification (and options) did not change while
  re-resolving ones whose constraints did.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.core.errors import ReproError
from repro.core.retry import RetryPolicy
from repro.core.specification import Specification
from repro.io import dump_constraints
from repro.resolution.framework import ResolverOptions
from repro.serving.host import engine_key
from repro.serving.wire import _canonical

import hashlib

__all__ = ["RunConfig", "specification_hash"]


def specification_hash(spec: Specification, options: Optional[ResolverOptions] = None) -> str:
    """Structural digest of one entity's specification (and resolver options).

    Covers the schema, the observed rows in observation order, and Σ ∪ Γ in
    the constraint-file format; *options* (when given) folds in the
    result-affecting resolver configuration, so results stored under one
    round budget or fallback strategy are not replayed under another.
    Currency-order deltas applied on top of the raw instance are *not*
    covered — the store keys base specifications, the shape every facade
    mode resolves.
    """
    payload = {
        "relation": spec.schema.name,
        "attributes": list(spec.schema.attribute_names),
        "rows": [dict(t.as_dict()) for t in spec.instance],
        "constraints": _constraints_digest(spec.currency_constraints, spec.cfds),
    }
    if options is not None:
        payload["options"] = asdict(options)
    blob = _canonical(_jsonable(payload))
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=256)
def _constraints_digest(sigma: tuple, gamma: tuple) -> str:
    """Digest of one Σ ∪ Γ (memoized).

    Every entity of a workload shares the same constraint tuples, so a
    store-enabled run would otherwise re-serialize the whole constraint set
    once *per entity* — the hash, not the solver, would dominate the skip
    path.  Specifications expose Σ and Γ as tuples, which makes them usable
    as cache keys directly.
    """
    blob = dump_constraints(list(sigma), list(gamma))
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()


def _jsonable(value):
    """Coerce a payload to JSON-safe primitives (non-primitives via ``str``)."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


@dataclass(frozen=True)
class RunConfig:
    """Frozen, validated configuration of one :class:`ResolutionClient`.

    Attributes
    ----------
    options:
        The resolver configuration applied to every entity (round budget,
        fallback, Suggest strategies, incremental path, solver budget).
    workers / chunk_size / max_inflight_chunks:
        Engine pool shape (see :class:`~repro.engine.ResolutionEngine`);
        ``None`` keeps the engine defaults.
    max_inflight:
        Serving-mode per-request backpressure cap (defaults to the engine's
        in-flight chunk window).
    scope:
        Extra engine-lease scope folded into :meth:`cache_key` — e.g. a
        :meth:`~repro.serving.wire.SpecificationBuilder.cache_key` — for
        deployments that want one warm engine per (schema, constraint-set)
        workload instead of one per configuration.
    store:
        The persistent result store: a :class:`~repro.api.store.ResultStore`
        instance (shared, caller-owned), a path to a SQLite store, or
        ``":memory:"`` (both opened — and closed — by the client).  With a
        store, every mode transparently skips entities whose
        ``(entity key, specification hash)`` is already resolved.
    retry_quarantined:
        Store policy for *quarantined* results (stored entities whose
        ``failure`` marker is non-empty): by default they are served from
        the store like any other result — a poison entity stays poison
        across re-runs without burning its attempt budget again.  ``True``
        treats stored failures as misses, so a re-run retries every
        quarantined entity through the engine (the ``--retry-quarantined``
        CLI flag).  Client-level only — not part of :meth:`cache_key` or the
        store's specification hash.
    retry_policy:
        The :class:`~repro.core.retry.RetryPolicy` applied to one-shot
        dispatch (:meth:`~repro.api.client.ResolutionClient.resolve`) and
        handed to serving-mode servers; ``None`` uses the policy defaults.
        Like the store, not part of any digest.
    """

    options: ResolverOptions = field(default_factory=ResolverOptions)
    workers: int = 1
    chunk_size: Optional[int] = None
    max_inflight_chunks: Optional[int] = None
    max_inflight: Optional[int] = None
    scope: str = ""
    store: Optional[Union[str, Path, object]] = None
    retry_quarantined: bool = False
    retry_policy: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if not isinstance(self.options, ResolverOptions):
            raise ReproError(
                f"options must be ResolverOptions, got {type(self.options).__name__}"
            )
        if int(self.workers) < 1:
            raise ReproError(f"workers must be >= 1, got {self.workers}")
        for name in ("chunk_size", "max_inflight_chunks", "max_inflight"):
            value = getattr(self, name)
            if value is not None and int(value) < 1:
                raise ReproError(f"{name} must be >= 1, got {value}")
        self.options.check()
        if self.options.max_rounds < 0:
            raise ReproError(f"options.max_rounds must be >= 0, got {self.options.max_rounds}")
        if self.retry_policy is not None and not isinstance(self.retry_policy, RetryPolicy):
            raise ReproError(
                f"retry_policy must be a RetryPolicy, got {type(self.retry_policy).__name__}"
            )
        if int(self.options.max_attempts) < 1:
            raise ReproError(
                f"options.max_attempts must be >= 1, got {self.options.max_attempts}"
            )

    # -- digests ---------------------------------------------------------------

    def cache_key(self) -> str:
        """Structural digest of the engine-relevant configuration.

        This is exactly the :func:`~repro.serving.host.engine_key` of the
        config, so a client's lease and a :class:`~repro.serving.ResolutionServer`
        built from the same config land on the same warm engine.  The result
        store is deliberately excluded: attaching a store must not cold-start
        a new pool.
        """
        return engine_key(
            self.options, self.workers, self.chunk_size, self.max_inflight_chunks, self.scope
        )

    def spec_hash(self, spec: Specification) -> str:
        """The result-store hash of one specification under this config."""
        return specification_hash(spec, self.options)
