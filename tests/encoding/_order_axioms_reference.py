"""The plainest emitter of Φ's order axioms, the reference for the integer one.

Each ``≺^v_A`` is a strict total order over the used values of ``A``: for
every value triple ``a, b, c`` (positions ``i < j < k``) Φ holds the two
clauses that forbid a 3-cycle, ``¬(a ≺ b) ∨ ¬(b ≺ c) ∨ (a ≺ c)`` and
``(a ≺ b) ∨ (b ≺ c) ∨ ¬(a ≺ c)``.  Here each clause is built from
:class:`OrderLiteral` objects, one triple at a time, and turned into integers
through a registry's signed literals — for a cold encode, for the incremental
encoder's full encode and for its deltas.  The tests check that
:func:`repro.encoding.cnf_encoder.emit_order_axioms` and the incremental
encoder write exactly the same clauses, in the same order, with the same
variable numbers.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Sequence, Tuple

from repro.core.values import Value
from repro.encoding.compiled import stamp
from repro.encoding.incremental import IncrementalEncoder
from repro.encoding.instance_constraints import (
    InstanceConstraint,
    InstanceConstraintSet,
    InstantiationOptions,
    Record,
)
from repro.encoding.variables import OrderLiteral, OrderVariableRegistry

from tests.encoding._instantiate_reference import reference_instantiate
from tests.solvers._cnf_reference import CNF

#: One clause as (atom, positive?) pairs.
SignedClause = Tuple[Tuple[OrderLiteral, bool], ...]


def triangle_clauses(attribute: str, values: Sequence[Value], start: int = 0) -> Iterator[SignedClause]:
    """The two no-3-cycle clauses of each triple of *values* whose last position is ≥ *start*."""
    for k in range(start, len(values)):
        for i, j in itertools.combinations(range(k), 2):
            a, b, c = values[i], values[j], values[k]
            ab = OrderLiteral(attribute, a, b)
            bc = OrderLiteral(attribute, b, c)
            ac = OrderLiteral(attribute, a, c)
            yield ((ab, False), (bc, False), (ac, True))
            yield ((ab, True), (bc, True), (ac, False))


def to_clause(clause: SignedClause, registry: OrderVariableRegistry) -> Tuple[int, ...]:
    """*clause* as signed integers, registering new pairs in clause order."""
    return tuple(
        registry.variable(atom) if positive else -registry.variable(atom) for atom, positive in clause
    )


def constraint_clause(constraint: InstanceConstraint, registry: OrderVariableRegistry) -> List[int]:
    """*constraint* as a clause, through its atom objects: body negated, then head."""
    clause = [-registry.variable(atom) for atom in constraint.body]
    if constraint.head is not None:
        clause.append(registry.variable(constraint.head))
    return clause


def reference_encoding(spec, options: InstantiationOptions) -> Tuple[CNF, OrderVariableRegistry]:
    """Φ(S_e) through the object path: Ω, then every attribute's triangles, one fresh registry."""
    omega = reference_instantiate(spec, options)
    registry = OrderVariableRegistry()
    cnf = CNF()
    for constraint in omega:
        cnf.add_clause(constraint_clause(constraint, registry))
    for attribute, values in omega.used_values.items():
        for clause in triangle_clauses(attribute, values):
            cnf.add_clause(to_clause(clause, registry))
    if omega.inherently_invalid and not cnf.has_empty_clause():
        cnf.add_clause([])
    cnf.num_variables = max(cnf.num_variables, registry.num_variables)
    return cnf, registry


class ReferenceIncrementalEncoder(IncrementalEncoder):
    """The incremental encoder with its clauses built from atom objects.

    The full encode writes each Ω record's clause through its
    :class:`InstanceConstraint` and then each attribute's triangles; a delta
    appends the triangles whose newest value it first uses.
    """

    def _triangles(self, attribute: str, start: int, clauses: List) -> int:
        values = self._used_values[attribute]
        count = 0
        for clause in triangle_clauses(attribute, values, start):
            clauses.append(to_clause(clause, self._registry))
            count += 1
        return count

    def _full_encode(self) -> None:
        spec = self._spec
        omega, keys, projections = stamp(spec, self._program)
        self._encoding.omega = omega
        self._used_values = omega.used_values
        clauses = []
        for record, key, constraint in zip(omega.records, keys, omega.constraints):
            if record[0] == "cfd":
                guard = self._registry.auxiliary_variable()
                self._guards[key] = guard
                self._guard_records[key] = record
                clauses.append([-guard] + constraint_clause(constraint, self._registry))
            else:
                self._keys.add(key)
                clauses.append(constraint_clause(constraint, self._registry))
        for attribute in self._used_values:
            self._triangles(attribute, 0, clauses)
        self._load(clauses, initial=True)
        if self._omega.inherently_invalid:
            return
        self._seed_delta_state(projections)

    def _delta_order_axioms(self, new_records: List[Record], clauses: List) -> int:
        new_counts = {}
        for constraint in InstanceConstraintSet(records=new_records).constraints:
            head = () if constraint.head is None else (constraint.head,)
            for literal in constraint.body + head:
                count = new_counts.get(literal.attribute, 0)
                for value in (literal.older, literal.newer):
                    count += self._note_used(literal.attribute, value)
                new_counts[literal.attribute] = count
        pushed = 0
        for attribute in sorted(new_counts):
            start = len(self._used_values.get(attribute, [])) - new_counts[attribute]
            pushed += self._triangles(attribute, start, clauses)
        return pushed
