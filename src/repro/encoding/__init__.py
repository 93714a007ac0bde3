"""SAT encoding of specifications (paper Section V-A).

``instantiate`` builds the instance constraints Ω(S_e) by compiling Σ ∪ Γ
into a constraint program and stamping it onto the entity;
``IncrementalEncoder`` converts them into Φ(S_e), held in its solver session,
together with the ordering-variable registry, and extends Φ by each round's
delta.
"""

from repro.encoding.cnf_encoder import SpecificationEncoding
from repro.encoding.compiled import (
    CompiledConstraintProgram,
    ConstraintProgramCache,
    compile_program,
    instantiate,
    instantiate_compiled,
)
from repro.encoding.incremental import IncrementalEncoder
from repro.encoding.instance_constraints import (
    InstanceConstraint,
    InstanceConstraintSet,
    InstantiationOptions,
)
from repro.encoding.variables import OrderLiteral, OrderVariableRegistry, canonical_value

__all__ = [
    "CompiledConstraintProgram",
    "ConstraintProgramCache",
    "IncrementalEncoder",
    "InstanceConstraint",
    "InstanceConstraintSet",
    "InstantiationOptions",
    "OrderLiteral",
    "OrderVariableRegistry",
    "SpecificationEncoding",
    "canonical_value",
    "compile_program",
    "instantiate",
    "instantiate_compiled",
]
