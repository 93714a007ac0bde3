"""Core data model for currency/consistency based conflict resolution.

This package implements Section II of the paper: values and NULL semantics,
relation schemas, entity tuples and instances, partial currency orders,
currency constraints, constant CFDs, completions and specifications.
"""

from repro.core.cfd import ConstantCFD
from repro.core.completion import Completion, enumerate_completions
from repro.core.constraints import (
    ConstantComparisonPredicate,
    CurrencyConstraint,
    OrderPredicate,
    TupleComparisonPredicate,
)
from repro.core.errors import (
    ConstraintSyntaxError,
    CyclicOrderError,
    DatasetError,
    EncodingError,
    InvalidSpecificationError,
    ReproError,
    ResolutionError,
    SchemaError,
    SolverError,
    ValueTypeError,
)
from repro.core.instance import EntityInstance, TemporalInstance, TemporalOrderDelta
from repro.core.partial_order import PartialOrder
from repro.core.schema import Attribute, RelationSchema
from repro.core.specification import Specification, TrueValueAssignment
from repro.core.tuples import EntityTuple
from repro.core.values import NULL, AttributeType, Null, Value, compare_values, is_null, values_equal

__all__ = [
    "Attribute",
    "AttributeType",
    "Completion",
    "ConstantCFD",
    "ConstantComparisonPredicate",
    "ConstraintSyntaxError",
    "CurrencyConstraint",
    "CyclicOrderError",
    "DatasetError",
    "EncodingError",
    "EntityInstance",
    "EntityTuple",
    "InvalidSpecificationError",
    "NULL",
    "Null",
    "OrderPredicate",
    "PartialOrder",
    "RelationSchema",
    "ReproError",
    "ResolutionError",
    "SchemaError",
    "SolverError",
    "Specification",
    "TemporalInstance",
    "TemporalOrderDelta",
    "TrueValueAssignment",
    "TupleComparisonPredicate",
    "Value",
    "ValueTypeError",
    "compare_values",
    "enumerate_completions",
    "is_null",
    "values_equal",
]
