"""Conversion of instance constraints into clauses (paper procedure ``ConvertToCNF``).

Each ordering atom ``a1 ≺^v_A a2`` is mapped to a signed literal by an
:class:`~repro.encoding.variables.OrderVariableRegistry`, one variable per
pair of values; every instance constraint ``x1 ∧ … ∧ xk → x`` becomes the
clause ``¬x1 ∨ … ∨ ¬xk ∨ x`` (with the obvious variant for an absent head),
written as integers straight from Ω's records (:func:`_record_clause`).
The total-order axioms of every ``≺^v_A`` over its used values are not
instance constraints: :func:`emit_order_axioms` writes them straight into Φ
as integer clauses after Ω's, two per value triple.  Every model of Φ(S_e)
then totally orders each attribute's used values, and Φ(S_e) is satisfiable
iff the specification is valid (paper Lemma 5).

The :class:`~repro.encoding.incremental.IncrementalEncoder` writes these
clauses into its solver session, the one place Φ(S_e) is kept.
:class:`SpecificationEncoding` bundles what the resolution algorithms read
next to that session: the specification, Ω(S_e) and the variable registry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.specification import Specification
from repro.core.values import Value
from repro.encoding.instance_constraints import InstanceConstraintSet, InstantiationOptions, Triple
from repro.encoding.variables import OrderLiteral, OrderVariableRegistry, canonical_value

__all__ = ["OrderAxioms", "SpecificationEncoding", "emit_order_axioms"]


@dataclass
class SpecificationEncoding:
    """A specification together with its instance constraints and variable registry.

    Attributes
    ----------
    specification:
        The encoded specification ``S_e``.
    omega:
        The instance constraints Ω(S_e).
    registry:
        Mapping between ordering atoms and propositional variables.
    options:
        The instantiation options used.
    session_clauses:
        Clauses of Φ(S_e) pushed into the encoder's session so far.
    """

    specification: Specification
    omega: InstanceConstraintSet
    registry: OrderVariableRegistry
    options: InstantiationOptions = field(default_factory=InstantiationOptions)
    session_clauses: int = 0

    # -- literal helpers ------------------------------------------------------

    def literal(self, atom: OrderLiteral) -> int:
        """Return the signed SAT literal for *atom*, registering its pair if new."""
        return self.registry.variable(atom)

    def find_literal(self, atom: OrderLiteral) -> Optional[int]:
        """Return the SAT literal for *atom* if it exists, else ``None``."""
        return self.registry.find(atom)

    def order_literal(self, attribute: str, older: Value, newer: Value) -> Optional[int]:
        """Convenience wrapper building the atom from its components."""
        return self.find_literal(OrderLiteral(attribute, older, newer))

    def decode(self, literal: int) -> Tuple[OrderLiteral, bool]:
        """Decode a signed SAT literal into (canonical atom, positive?)."""
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
            "clauses": self.session_clauses,
        }


def _record_clause(
    registry: OrderVariableRegistry, body: Sequence[Triple], head: Optional[Triple]
) -> List[int]:
    """The clause of one Ω record: its body atoms negated, then its head.

    New pairs are registered in that order, body first, so the variable
    numbers follow the clause stream.
    """
    variable_for = registry.variable_for
    clause = [-variable_for(*triple) for triple in body]
    if head is not None:
        clause.append(variable_for(*head))
    return clause


# -- order axioms ----------------------------------------------------------------

#: Where the order axioms go: appends one integer clause to Φ.
Push = Callable[[Tuple[int, ...]], None]


class OrderAxioms:
    """The total-order clauses of one attribute's ``≺^v_A``: two per value triple.

    Values are addressed by position in the used-value list, and ``x_ij``
    (``i < j``) is the signed literal for "value ``i`` ≺ value ``j``": one
    variable per pair, so every model orders every pair.  A tournament with
    no 3-cycle is acyclic, so the two clauses per triple ``i < j < k``

    * ``¬x_ij ∨ ¬x_jk ∨ x_ik`` (no cycle ``i ≺ j ≺ k ≺ i``) and
    * ``x_ij ∨ x_jk ∨ ¬x_ik`` (no cycle ``k ≺ j ≺ i ≺ k``)

    make every model a strict total order.  A pair → literal table fills on
    first use through :meth:`OrderVariableRegistry.variable_for`, in clause
    order, and the clauses go to *push* as integer tuples: no atom object
    per clause.
    """

    def __init__(
        self, registry: OrderVariableRegistry, attribute: str, values: Sequence[Value], push: Push
    ) -> None:
        self._keys = [canonical_value(value) for value in values]
        self._attribute, self._registry, self._push = attribute, registry, push
        self._table = [[0] * len(values) for _ in values]  # 0: not looked up yet

    def _literal(self, lower: int, higher: int) -> int:
        row = self._table[lower]
        literal = row[higher]
        if not literal:
            literal = row[higher] = self._registry.variable_for(
                self._attribute, self._keys[lower], self._keys[higher]
            )
        return literal

    def triangles(self, start: int = 0) -> int:
        """Push both clauses of each triple whose highest position is ≥ *start*; return how many.

        A triple is emitted when its newest value is first used: the full
        encode starts at 0, and a delta that adds positions ``start …`` runs
        the same generator from ``start``.
        """
        literal, push, count = self._literal, self._push, 0
        for k in range(start, len(self._keys)):
            for i, j in itertools.combinations(range(k), 2):
                ij, jk, ik = literal(i, j), literal(j, k), literal(i, k)
                push((-ij, -jk, ik))
                push((ij, jk, -ik))
                count += 2
        return count


def emit_order_axioms(
    registry: OrderVariableRegistry, push: Push, used_values: Mapping[str, Sequence[Value]]
) -> int:
    """Write the order axioms of every attribute into Φ; return the clause count.

    Attributes come in ``used_values`` order, and each gets
    :meth:`OrderAxioms.triangles` over all its used values.  Call it after
    Ω's clauses.

    No clause emitted here repeats a clause of Ω or another triangle clause,
    compared as sets of literals:

    * a triangle clause has three literals, all on one attribute, over the
      three pairs of a value triple, so no value lies in all three pairs;
    * a currency instance has at most one body literal per attribute (every
      order predicate on ``A`` instantiates to the same ``t1[A] ≺ t2[A]``)
      plus its head, so at most two literals on one attribute;
    * a CFD instance's literals on one attribute share one value (the
      pattern constant for the body, the RHS constant for the head), which
      lies in every pair they name;
    * facts and closure facts are unit clauses, and a conflict is empty;
    * distinct triples have distinct variable sets, and a triple's two
      clauses have opposite signs.
    """
    count = 0
    for attribute, values in used_values.items():
        count += OrderAxioms(registry, attribute, values, push).triangles()
    return count
