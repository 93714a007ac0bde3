"""Φ(S_e) encoded from scratch into a CNF, kept as the reference for the encoder.

The package keeps Φ only in the solver session of an
:class:`~repro.encoding.incremental.IncrementalEncoder`.  The encoder tests
compare it with :func:`encode_specification`: Ω stamped from the compiled
program, each record's clause with no guard literals, then the order axioms,
all collected in a :class:`~tests.solvers._cnf_reference.CNF`.

A :class:`ColdEncoding` also stands in for an encoder (``encoding``,
``session``, ``assumptions``), so the resolution algorithms run on the
reference Φ, or on any hand-built CNF, loaded into a fresh
:class:`~repro.solvers.session.ArenaSession`.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.specification import Specification
from repro.encoding.cnf_encoder import SpecificationEncoding, _record_clause, emit_order_axioms
from repro.encoding.compiled import CompiledConstraintProgram, compile_program, instantiate_compiled
from repro.encoding.instance_constraints import InstantiationOptions
from repro.encoding.variables import OrderVariableRegistry
from repro.solvers.session import ArenaSession

from tests.solvers._cnf_reference import CNF


class ColdEncoding:
    """An encoding whose Φ is the CNF *cnf*, loaded into a fresh arena session with no guards."""

    assumptions: Tuple[int, ...] = ()

    def __init__(self, encoding: SpecificationEncoding, cnf: CNF) -> None:
        self.encoding, self.cnf = encoding, cnf
        self.registry, self.omega = encoding.registry, encoding.omega
        encoding.session_clauses = len(cnf)
        self.session = ArenaSession()
        self.session.load_clauses(cnf.clauses, cnf.num_variables)


def encode_specification(
    spec: Specification,
    options: InstantiationOptions | None = None,
    program: CompiledConstraintProgram | None = None,
) -> ColdEncoding:
    """Build Ω(S_e) and Φ(S_e) for *spec* from scratch.

    Ω is stamped from *program*; without one, a program is compiled from
    *options*.  The program's own options take precedence over *options*.
    """
    if program is None:
        program = compile_program(spec, options)
    omega = instantiate_compiled(spec, program)
    registry = OrderVariableRegistry()
    cnf = CNF()
    for _, _, body, head in omega.records:
        cnf.add_clause(_record_clause(registry, body, head))
    emit_order_axioms(registry, cnf.add_clause, omega.used_values)
    if omega.inherently_invalid and not cnf.has_empty_clause():
        cnf.add_clause([])
    cnf.num_variables = max(cnf.num_variables, registry.num_variables)
    encoding = SpecificationEncoding(
        specification=spec, omega=omega, registry=registry, options=program.options
    )
    return ColdEncoding(encoding, cnf)
