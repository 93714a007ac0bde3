"""Conversion of instance constraints into CNF (paper procedure ``ConvertToCNF``).

Each ordering atom ``a1 ≺^v_A a2`` is mapped to a propositional variable by an
:class:`~repro.encoding.variables.OrderVariableRegistry`; every instance
constraint ``x1 ∧ … ∧ xk → x`` becomes the clause ``¬x1 ∨ … ∨ ¬xk ∨ x`` (with
the obvious variant for an absent head).  The asymmetry and transitivity
axioms of every ``≺^v_A`` over its used values are not instance constraints:
:func:`emit_order_axioms` writes them straight into Φ as integer clauses
after Ω's.  The result Φ(S_e) is satisfiable iff the specification is valid
(paper Lemma 5).

:class:`SpecificationEncoding` bundles the specification, Ω(S_e), the variable
registry and Φ(S_e); it is the object every resolution algorithm works on.
The incremental encoder's encodings hold no CNF: their Φ lives only in the
encoder's solver session.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Callable, Collection, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.core.errors import ReproError
from repro.core.specification import Specification
from repro.core.values import Value
from repro.encoding.compiled import CompiledConstraintProgram, compile_program, instantiate_compiled
from repro.encoding.instance_constraints import (
    InstanceConstraint,
    InstanceConstraintSet,
    InstantiationOptions,
)
from repro.encoding.variables import OrderLiteral, OrderVariableRegistry, canonical_value
from repro.solvers.cnf import CNF

__all__ = ["OrderAxioms", "SpecificationEncoding", "emit_order_axioms", "encode_specification"]


@dataclass
class SpecificationEncoding:
    """A specification together with its instance constraints and CNF encoding.

    Attributes
    ----------
    specification:
        The encoded specification ``S_e``.
    omega:
        The instance constraints Ω(S_e).
    registry:
        Mapping between ordering atoms and propositional variables.
    cnf:
        The CNF Φ(S_e), or ``None`` when Φ lives only in a solver session
        (the :class:`~repro.encoding.incremental.IncrementalEncoder`'s).
    options:
        The instantiation options used.
    session_clauses:
        Clauses pushed into the session so far, when ``cnf`` is ``None``.
    """

    specification: Specification
    omega: InstanceConstraintSet
    registry: OrderVariableRegistry
    cnf: Optional[CNF]
    options: InstantiationOptions = field(default_factory=InstantiationOptions)
    session_clauses: int = 0

    def require_cnf(self, consumer: str) -> CNF:
        """Φ as a CNF, for *consumer* running without a solver session.

        Raises :class:`~repro.core.errors.ReproError` for a session-backed
        encoding: its clauses are only in the session, so pass that.
        """
        if self.cnf is None:
            raise ReproError(
                f"{consumer} needs the solver session: this encoding keeps Φ only in "
                "its IncrementalEncoder's session (pass session=encoder.session)"
            )
        return self.cnf

    # -- literal helpers ------------------------------------------------------

    def literal(self, atom: OrderLiteral) -> int:
        """Return the (positive) SAT literal for *atom*, registering it if new."""
        return self.registry.variable(atom)

    def find_literal(self, atom: OrderLiteral) -> Optional[int]:
        """Return the SAT literal for *atom* if it exists, else ``None``."""
        return self.registry.find(atom)

    def order_literal(self, attribute: str, older: Value, newer: Value) -> Optional[int]:
        """Convenience wrapper building the atom from its components."""
        return self.find_literal(OrderLiteral(attribute, older, newer))

    def decode(self, literal: int) -> Tuple[OrderLiteral, bool]:
        """Decode a signed SAT literal into (atom, positive?)."""
        return self.registry.decode_literal(literal)

    # -- statistics -----------------------------------------------------------

    def statistics(self) -> Dict[str, int]:
        """Sizes of the encoding (used by benchmarks and reports)."""
        return {
            "tuples": len(self.specification.instance),
            "currency_constraints": len(self.specification.currency_constraints),
            "cfds": len(self.specification.cfds),
            "instance_constraints": len(self.omega),
            "variables": self.registry.num_variables,
            "clauses": self.session_clauses if self.cnf is None else len(self.cnf),
        }


def _constraint_to_clause(
    constraint: InstanceConstraint, registry: OrderVariableRegistry
) -> List[int]:
    clause = [-registry.variable(atom) for atom in constraint.body]
    if constraint.head is not None:
        head_variable = registry.variable(constraint.head)
        clause.append(-head_variable if constraint.negated_head else head_variable)
    return clause


# -- order axioms ----------------------------------------------------------------

#: Where the order axioms go: appends one integer clause to Φ.
Push = Callable[[Tuple[int, ...]], None]


class OrderAxioms:
    """The asymmetry and transitivity clauses of one attribute's ``≺^v_A``.

    Values are addressed by position in the used-value list.  A pair →
    variable table fills on first use through
    :meth:`OrderVariableRegistry.variable_for`, in clause order, and the
    clauses go to *push* as integer tuples: no atom object per clause.
    """

    def __init__(
        self, registry: OrderVariableRegistry, attribute: str, values: Sequence[Value], push: Push
    ) -> None:
        self.keys = [canonical_value(value) for value in values]
        self._attribute, self._registry, self._push = attribute, registry, push
        self._table = [[0] * len(values) for _ in values]  # 0: not looked up yet

    def _variable(self, older: int, newer: int) -> int:
        row = self._table[older]
        variable = row[newer]
        if not variable:
            variable = row[newer] = self._registry.variable_for(
                self._attribute, self.keys[older], self.keys[newer]
            )
        return variable

    def asymmetry(self, pairs: Iterable[Tuple[int, int]]) -> int:
        """Push ``¬(a ≺ b) ∨ ¬(b ≺ a)`` per position pair; return how many."""
        variable, push, count = self._variable, self._push, 0
        for count, (older, newer) in enumerate(pairs, 1):
            body = variable(older, newer)
            push((-body, -variable(newer, older)))
        return count

    def transitivity(self, triples: Iterable[Tuple[int, int, int]]) -> int:
        """Push ``¬(a ≺ b) ∨ ¬(b ≺ c) ∨ (a ≺ c)`` per position triple; return how many."""
        variable, push, count = self._variable, self._push, 0
        for count, (first, second, third) in enumerate(triples, 1):
            left, right = variable(first, second), variable(second, third)
            push((-left, -right, variable(first, third)))
        return count


def _transitive_positions(
    keys: Sequence[Hashable], cap: Optional[int], conditional: Collection[Hashable]
) -> List[int]:
    """Positions of the values transitivity ranges over (see ``transitivity_cap``)."""
    if cap is not None and len(keys) > cap:
        return [position for position, key in enumerate(keys) if key in conditional]
    return list(range(len(keys)))


def emit_order_axioms(
    registry: OrderVariableRegistry,
    push: Push,
    options: InstantiationOptions,
    used_values: Mapping[str, Sequence[Value]],
    conditional_keys: Mapping[str, Set[Hashable]],
) -> int:
    """Write the order axioms of every attribute into Φ; return the clause count.

    Attributes come in ``used_values`` order; per attribute, asymmetry runs
    over ``combinations`` and transitivity over ``permutations`` of the
    (capped) used values.  Call it after Ω's clauses.

    No clause emitted here needs deduplication against Ω or against another
    axiom, under the instance-constraint key (body atoms as a set, head atom,
    head sign):

    * asymmetry is the only kind with a negated head, and the pairs of
      ``combinations`` are distinct unordered pairs;
    * a transitivity body is a two-literal chain ``a ≺ b, b ≺ c`` on the
      head's attribute, with ``b`` fixed by body and head, so distinct
      triples give distinct keys;
    * a currency instance has at most one literal per attribute (every order
      predicate on ``A`` instantiates to the same ``t1[A] ≺ t2[A]``), so its
      body set is never a two-literal chain on one attribute;
    * a CFD instance's body literals on one attribute share their newer value
      (the pattern constant), while a chain's newer values ``b ≠ c`` differ;
    * facts and closure facts have empty bodies, and a conflict has no head.
    """
    count = 0
    for attribute, values in used_values.items():
        axioms = OrderAxioms(registry, attribute, values, push)
        if options.include_asymmetry:
            count += axioms.asymmetry(itertools.combinations(range(len(values)), 2))
        if options.include_transitivity:
            positions = _transitive_positions(
                axioms.keys, options.transitivity_cap, conditional_keys.get(attribute, ())
            )
            count += axioms.transitivity(itertools.permutations(positions, 3))
    return count


def encode_specification(
    spec: Specification,
    options: InstantiationOptions | None = None,
    program: CompiledConstraintProgram | None = None,
) -> SpecificationEncoding:
    """Build Ω(S_e) and Φ(S_e) for *spec*.

    Ω is stamped from *program*, a
    :class:`~repro.encoding.compiled.CompiledConstraintProgram` for *spec*'s
    schema and Σ ∪ Γ; without one, a program is compiled from *options*.
    The program's own options take precedence over *options*.
    """
    if program is None:
        program = compile_program(spec, options)
    options = program.options
    omega = instantiate_compiled(spec, program)
    registry = OrderVariableRegistry()
    cnf = CNF()
    for constraint in omega:
        cnf.add_clause(_constraint_to_clause(constraint, registry))
    emit_order_axioms(registry, cnf.add_clause, options, omega.used_values, omega.conditional_keys)
    if omega.inherently_invalid and not cnf.has_empty_clause():
        cnf.add_clause([])
    cnf.num_variables = max(cnf.num_variables, registry.num_variables)
    return SpecificationEncoding(
        specification=spec,
        omega=omega,
        registry=registry,
        cnf=cnf,
        options=options,
    )
