"""SAT encoding of specifications (paper Section V-A).

``instantiate`` builds the instance constraints Ω(S_e) by compiling Σ ∪ Γ
into a constraint program and stamping it onto the entity;
``encode_specification`` converts them into the CNF Φ(S_e) together with the
ordering-variable registry.
"""

from repro.encoding.cnf_encoder import SpecificationEncoding, encode_specification
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
    "encode_specification",
    "instantiate",
    "instantiate_compiled",
]
