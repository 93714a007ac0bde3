"""repro — reproduction of "Inferring Data Currency and Consistency for
Conflict Resolution" (Fan, Geerts, Tang, Yu; ICDE 2013).

The public API re-exports the most frequently used classes; the subpackages
hold the full system:

* :mod:`repro.api` — the unified facade: :class:`RunConfig`,
  :class:`ResolutionClient` (one front door over batch, streaming,
  experiment and serving execution) and the persistent :class:`ResultStore`;
* :mod:`repro.core` — the data model (schemas, entity instances, currency
  orders, currency constraints, constant CFDs, specifications);
* :mod:`repro.solvers` — SAT / MaxSAT / clique substrate;
* :mod:`repro.encoding` — the Ω(S_e) / Φ(S_e) encodings;
* :mod:`repro.resolution` — IsValid, DeduceOrder, Suggest, the interactive
  framework and the traditional baselines;
* :mod:`repro.engine` — the parallel multi-entity resolution engine
  (process-pool scheduling with compiled-program reuse);
* :mod:`repro.pipeline` — composable streaming pipelines (Source → Stage →
  Sink) running generation/linkage/resolution/metrics in bounded memory;
* :mod:`repro.linkage` — record-linkage substrate producing entity instances
  (batch and streaming);
* :mod:`repro.discovery` — constant-CFD and currency-constraint discovery;
* :mod:`repro.datasets` — NBA / CAREER / Person generators with ground truth;
* :mod:`repro.evaluation` — metrics, simulated users and experiment runners;
* :mod:`repro.cdc` — change-data-capture: append-only change feeds and
  incremental re-resolution of the entities each change affects.
"""

from repro.api import (
    MemoryResultStore,
    ResolutionClient,
    ResultStore,
    RunConfig,
    SqliteResultStore,
    StoredResult,
    open_result_store,
    specification_hash,
)
from repro.core import (
    Attribute,
    AttributeType,
    ConstantCFD,
    CurrencyConstraint,
    EntityInstance,
    EntityTuple,
    NULL,
    PartialOrder,
    RelationSchema,
    Specification,
    TemporalInstance,
    TemporalOrderDelta,
    TrueValueAssignment,
)
from repro.cdc import (
    ChangeConsumer,
    ChangeFeed,
    ConstraintChanged,
    ConsumeReport,
    TupleAdded,
    TupleRetracted,
    feed_status,
    open_change_feed,
)
from repro.core.errors import EntityFailure
from repro.core.retry import RetryPolicy
from repro.encoding import IncrementalEncoder, InstantiationOptions
from repro.engine import QuarantineRecord, ResolutionEngine
from repro.faults import FaultPlan
from repro.pipeline import Pipeline
from repro.resolution import (
    ConflictResolver,
    ResolverOptions,
    SilentOracle,
    Suggestion,
    check_validity,
    deduce_order,
    extract_true_values,
    is_valid,
    naive_deduce,
    pick_resolution,
    suggest,
)
from repro.solvers import SolverBudget

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "AttributeType",
    "ChangeConsumer",
    "ChangeFeed",
    "ConflictResolver",
    "ConstantCFD",
    "ConstraintChanged",
    "ConsumeReport",
    "CurrencyConstraint",
    "EntityFailure",
    "EntityInstance",
    "EntityTuple",
    "FaultPlan",
    "IncrementalEncoder",
    "InstantiationOptions",
    "MemoryResultStore",
    "NULL",
    "PartialOrder",
    "Pipeline",
    "QuarantineRecord",
    "RelationSchema",
    "ResolutionClient",
    "ResolutionEngine",
    "ResolverOptions",
    "ResultStore",
    "RetryPolicy",
    "RunConfig",
    "SilentOracle",
    "SolverBudget",
    "Specification",
    "SqliteResultStore",
    "StoredResult",
    "Suggestion",
    "TupleAdded",
    "TupleRetracted",
    "TemporalInstance",
    "TemporalOrderDelta",
    "TrueValueAssignment",
    "__version__",
    "feed_status",
    "open_change_feed",
    "open_result_store",
    "specification_hash",
    "check_validity",
    "deduce_order",
    "extract_true_values",
    "is_valid",
    "naive_deduce",
    "pick_resolution",
    "suggest",
]
