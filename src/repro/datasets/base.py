"""Common structures for the dataset generators.

Every generator produces a :class:`GeneratedDataset`: a schema, a list of
:class:`GeneratedEntity` objects (each with its observed tuples, its full
version history and its ground-truth latest values), and the global constraint
sets Σ and Γ.  The dataset can then hand out :class:`Specification` objects
per entity, optionally with only a fraction of the constraints — this is what
the accuracy experiments (Fig. 8(f)–(p)) vary.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.cfd import ConstantCFD
from repro.core.constraints import CurrencyConstraint
from repro.core.errors import DatasetError
from repro.core.instance import EntityInstance, TemporalInstance
from repro.core.schema import RelationSchema
from repro.core.specification import Specification, ValidatedConstraints, validated_constraints
from repro.core.tuples import EntityTuple
from repro.core.values import Value, is_null, values_equal

__all__ = [
    "GeneratedEntity",
    "GeneratedDataset",
    "DatasetStream",
    "build_specification",
    "sample_constraints",
    "shard_entities",
    "stable_key_shard",
]


@dataclass
class GeneratedEntity:
    """One synthetic entity: its observed tuples and its ground truth.

    Attributes
    ----------
    name:
        Entity identifier (e.g. a player id).
    rows:
        The observed tuples of the entity instance (dictionaries).
    true_values:
        Ground-truth latest value per attribute.
    history:
        The full version history (oldest → newest) the rows were drawn from;
        kept for the constraint-discovery substrate and for diagnostics.
    """

    name: str
    rows: List[Dict[str, Value]]
    true_values: Dict[str, Value]
    history: List[Dict[str, Value]] = field(default_factory=list)

    def size(self) -> int:
        """Number of observed tuples."""
        return len(self.rows)

    def conflicting_attributes(self, schema: RelationSchema) -> Tuple[str, ...]:
        """Attributes with conflicts or stale values (the recall denominator).

        An attribute counts when the observed tuples disagree on it, or when
        they agree on a single value that differs from the ground truth
        (a stale value), following the recall definition of Section VI.
        """
        conflicted: List[str] = []
        for attribute in schema.attribute_names:
            observed = []
            for row in self.rows:
                value = row.get(attribute)
                if not any(values_equal(value, existing) for existing in observed):
                    observed.append(value)
            non_null = [value for value in observed if not is_null(value)]
            if len(non_null) > 1:
                conflicted.append(attribute)
                continue
            truth = self.true_values.get(attribute)
            if non_null and not values_equal(non_null[0], truth):
                conflicted.append(attribute)
            elif not non_null and not is_null(truth):
                conflicted.append(attribute)
        return tuple(conflicted)


def sample_constraints(
    constraints: Sequence,
    fraction: float,
    rng: Optional[random.Random] = None,
) -> List:
    """Return a deterministic sample of ⌈fraction·n⌉ constraints.

    ``fraction`` outside [0, 1] raises :class:`DatasetError`.  The sample is a
    prefix of a seeded shuffle so that growing the fraction only ever adds
    constraints (matching how the paper varies |Σ| and |Γ|).
    """
    if not 0.0 <= fraction <= 1.0:
        raise DatasetError(f"constraint fraction must be in [0, 1], got {fraction}")
    if fraction == 1.0:
        return list(constraints)
    if fraction == 0.0:
        return []
    rng = rng or random.Random(7)
    order = list(range(len(constraints)))
    rng.shuffle(order)
    keep = max(1, round(fraction * len(constraints)))
    chosen = sorted(order[:keep])
    return [constraints[index] for index in chosen]


def build_specification(
    dataset_name: str,
    schema: RelationSchema,
    entity: GeneratedEntity,
    currency_constraints: Sequence[CurrencyConstraint],
    cfds: Sequence[ConstantCFD],
    sigma_fraction: float = 1.0,
    gamma_fraction: float = 1.0,
    seed: int = 7,
) -> Specification:
    """Build one entity's specification with a fraction of Σ and Γ.

    Shared by the batch :class:`GeneratedDataset` and the lazy
    :class:`DatasetStream` so the two paths produce byte-identical
    specifications (the constraint sample uses one seeded shuffle per entity,
    sigma first, then gamma — the draw order is part of the contract).
    """
    temporal, sigma, gamma, name = _specification_parts(
        dataset_name, schema, entity, currency_constraints, cfds, sigma_fraction, gamma_fraction, seed
    )
    return Specification(temporal, sigma, gamma, name=name)


def _specification_parts(
    dataset_name: str,
    schema: RelationSchema,
    entity: GeneratedEntity,
    currency_constraints: Sequence[CurrencyConstraint],
    cfds: Sequence[ConstantCFD],
    sigma_fraction: float,
    gamma_fraction: float,
    seed: int,
) -> Tuple[TemporalInstance, Tuple[CurrencyConstraint, ...], Tuple[ConstantCFD, ...], str]:
    """The temporal instance, sampled Σ and Γ, and name of :func:`build_specification`."""
    rng = random.Random(seed)
    sigma = sample_constraints(currency_constraints, sigma_fraction, rng)
    gamma = sample_constraints(cfds, gamma_fraction, rng)
    tuples = [EntityTuple(schema, row) for row in entity.rows]
    instance = EntityInstance(schema, tuples)
    return TemporalInstance(instance), tuple(sigma), tuple(gamma), f"{dataset_name}:{entity.name}"


class _ConstraintHolder:
    """Builds the specifications of a dataset, validating its Σ ∪ Γ once.

    Σ ∪ Γ is validated against the schema on the first specification, and
    again only after the schema or a constraint list has changed (see
    :func:`~repro.core.specification.validated_constraints`).
    """

    name: str
    schema: RelationSchema
    currency_constraints: List[CurrencyConstraint]
    cfds: List[ConstantCFD]
    _validated: Optional[ValidatedConstraints] = None

    def _specification(
        self, entity: GeneratedEntity, sigma_fraction: float, gamma_fraction: float, seed: int
    ) -> Specification:
        self._validated = validated_constraints(
            self.schema, self.currency_constraints, self.cfds, self._validated
        )
        _, sigma, gamma = self._validated
        temporal, sigma, gamma, name = _specification_parts(
            self.name, self.schema, entity, sigma, gamma, sigma_fraction, gamma_fraction, seed
        )
        return Specification._from_validated(temporal, sigma, gamma, name=name)


def stable_key_shard(key: object, num_shards: int) -> int:
    """Shard index of *key*: SHA-1 of its string form, reduced mod *num_shards*.

    Unlike :func:`hash`, the result is stable across processes and runs
    (``PYTHONHASHSEED`` does not perturb it), so a re-sharded re-run or a
    resumed run assigns every blocking key to the same shard it had before.
    """
    if num_shards < 1:
        raise DatasetError(f"num_shards must be positive, got {num_shards}")
    digest = hashlib.sha1(str(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


def shard_entities(
    entities: Iterable[GeneratedEntity],
    shard: int = 0,
    num_shards: int = 1,
    key: Optional[Callable[[GeneratedEntity], object]] = None,
) -> Iterator[GeneratedEntity]:
    """Keep the entities of partition *shard* out of *num_shards*.

    With ``key=None`` (the default) the partition is round-robin by stream
    position: every ``num_shards``-th entity starting at *shard*.  With a
    *key* callable the partition is by :func:`stable_key_shard` of
    ``key(entity)`` — hash-by-blocking-key, stable across runs and
    independent of stream position.

    Determinism contract, both modes: the shards are pairwise disjoint and
    their union is exactly the unsharded stream, so a deterministic merge
    recombines them byte-identically.  Round-robin shards merge by cycling
    the shards in index order (the exact inverse of the partition);
    hash-keyed shards merge by replaying the assignment order — each
    shard preserves stream order internally, and because the assignment
    depends only on the key, it is unchanged under re-sharding or resume.

    The generators draw every entity from one sequential RNG, so a shard
    cannot simply seed its own generator; instead each shard runs the same
    deterministic stream and keeps its slice — generation is cheap relative to
    resolution, and the union of all shards is exactly the unsharded stream.
    """
    if num_shards < 1:
        raise DatasetError(f"num_shards must be positive, got {num_shards}")
    if not 0 <= shard < num_shards:
        raise DatasetError(f"shard must be in [0, {num_shards}), got {shard}")
    for index, entity in enumerate(entities):
        if key is not None:
            if stable_key_shard(key(entity), num_shards) == shard:
                yield entity
        elif index % num_shards == shard:
            yield entity


@dataclass
class DatasetStream(_ConstraintHolder):
    """A lazily generated dataset: a bounded-memory view of a generator.

    The schema and the global constraint sets Σ and Γ are materialized (they
    are small and shared by every entity); the entities themselves remain an
    iterator, so a stream of a million entities occupies the memory of one.
    A stream is single-use — iterate it once, or :meth:`materialize` it into a
    :class:`GeneratedDataset` for the random-access batch APIs.
    """

    name: str
    schema: RelationSchema
    entities: Iterable[GeneratedEntity]
    currency_constraints: List[CurrencyConstraint]
    cfds: List[ConstantCFD]

    def __iter__(self) -> Iterator[GeneratedEntity]:
        return iter(self.entities)

    def specifications(
        self,
        sigma_fraction: float = 1.0,
        gamma_fraction: float = 1.0,
        limit: Optional[int] = None,
        seed: int = 7,
    ) -> Iterator[Tuple[GeneratedEntity, Specification]]:
        """Lazily yield (entity, specification) pairs — the pipeline source."""
        for index, entity in enumerate(self.entities):
            if limit is not None and index >= limit:
                return
            yield entity, self._specification(entity, sigma_fraction, gamma_fraction, seed)

    def materialize(self) -> "GeneratedDataset":
        """Exhaust the stream into a batch :class:`GeneratedDataset`."""
        return GeneratedDataset(
            name=self.name,
            schema=self.schema,
            entities=list(self.entities),
            currency_constraints=self.currency_constraints,
            cfds=self.cfds,
        )


@dataclass
class GeneratedDataset(_ConstraintHolder):
    """A generated dataset: entities plus the global constraint sets."""

    name: str
    schema: RelationSchema
    entities: List[GeneratedEntity]
    currency_constraints: List[CurrencyConstraint]
    cfds: List[ConstantCFD]

    # -- specifications -----------------------------------------------------

    def specification_for(
        self,
        entity: GeneratedEntity,
        sigma_fraction: float = 1.0,
        gamma_fraction: float = 1.0,
        seed: int = 7,
    ) -> Specification:
        """Build the specification of *entity* with a fraction of Σ and Γ."""
        return self._specification(entity, sigma_fraction, gamma_fraction, seed)

    def specifications(
        self,
        sigma_fraction: float = 1.0,
        gamma_fraction: float = 1.0,
        limit: Optional[int] = None,
        seed: int = 7,
    ) -> Iterator[Tuple[GeneratedEntity, Specification]]:
        """Iterate over (entity, specification) pairs."""
        for index, entity in enumerate(self.entities):
            if limit is not None and index >= limit:
                return
            yield entity, self.specification_for(entity, sigma_fraction, gamma_fraction, seed)

    def stream(self) -> DatasetStream:
        """View this materialized dataset as a (replayable) stream."""
        return DatasetStream(
            name=self.name,
            schema=self.schema,
            entities=self.entities,
            currency_constraints=self.currency_constraints,
            cfds=self.cfds,
        )

    # -- bookkeeping -----------------------------------------------------------

    def entities_by_size(self, buckets: Sequence[Tuple[int, int]]) -> Dict[Tuple[int, int], List[GeneratedEntity]]:
        """Group entities into tuple-count buckets (used by the scalability figures)."""
        grouped: Dict[Tuple[int, int], List[GeneratedEntity]] = {bucket: [] for bucket in buckets}
        for entity in self.entities:
            for low, high in buckets:
                if low <= entity.size() <= high:
                    grouped[(low, high)].append(entity)
                    break
        return grouped

    def all_rows(self) -> List[Dict[str, Value]]:
        """All observed rows of all entities (used by CFD discovery)."""
        rows: List[Dict[str, Value]] = []
        for entity in self.entities:
            rows.extend(entity.rows)
        return rows

    def histories(self) -> List[List[Dict[str, Value]]]:
        """All entity histories (used by currency-constraint discovery)."""
        return [entity.history for entity in self.entities if entity.history]

    def summary(self) -> str:
        """One-line dataset summary for reports."""
        sizes = [entity.size() for entity in self.entities]
        return (
            f"{self.name}: {len(self.entities)} entities, "
            f"{sum(sizes)} tuples (per entity {min(sizes)}–{max(sizes)}), "
            f"|Σ|={len(self.currency_constraints)}, |Γ|={len(self.cfds)}"
        )
