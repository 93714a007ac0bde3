"""Deduction of implied currency orders — ``DeduceOrder`` and ``NaiveDeduce``
(paper Section V-B).

``DeduceOrder`` (Fig. 5) repeatedly consumes one-literal clauses of Φ(S_e):
each forced positive literal ``x^A_{a1,a2}`` contributes the order
``a1 ≺^v a2`` to the deduced order O_d, each forced negative literal
contributes the reversed order (one variable stands for both orientations of
a pair, since distinct values are totally ordered in every completion), and
the formula is reduced by the literal.  The loop is exactly
unit propagation, so the implementation runs it as a propagate-only call on
the session of the :class:`~repro.encoding.incremental.IncrementalEncoder`
that holds Φ(S_e) (see
:meth:`~repro.solvers.session.SolverSession.propagate`) and then transitively
closes the per-attribute orders.

``NaiveDeduce`` is the baseline the paper compares against: for every ordered
pair of values it asks the SAT solver whether Φ(S_e) ∧ ¬x is unsatisfiable
(Lemma 6), i.e. one SAT call per candidate order, on the same session.
Both assume the encoder's guard literals in every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set

from repro.core.errors import CyclicOrderError
from repro.core.partial_order import PartialOrder
from repro.core.values import Value
from repro.encoding.incremental import IncrementalEncoder
from repro.encoding.variables import OrderLiteral, canonical_value

__all__ = ["DeducedOrders", "deduce_order", "naive_deduce"]


@dataclass
class DeducedOrders:
    """The deduced partial temporal order O_d (value-level, per attribute).

    Attributes
    ----------
    orders:
        Per-attribute :class:`PartialOrder` over canonical values; an edge
        ``a1 ≺ a2`` means every valid completion ranks ``a2`` as more current.
    conflict:
        ``True`` when deduction exposed that the specification is invalid.
    forced_literals:
        The raw SAT literals that were forced (diagnostics).
    sat_calls:
        Number of SAT-solver invocations (0 for ``DeduceOrder``).
    """

    orders: Dict[str, PartialOrder] = field(default_factory=dict)
    conflict: bool = False
    forced_literals: List[int] = field(default_factory=list)
    sat_calls: int = 0

    def order_for(self, attribute: str) -> PartialOrder:
        """Return the deduced order for *attribute* (empty when nothing is known)."""
        return self.orders.setdefault(attribute, PartialOrder())

    def holds(self, attribute: str, older: Value, newer: Value) -> bool:
        """Return ``True`` when ``older ≺ newer`` was deduced for *attribute*."""
        return self.order_for(attribute).precedes(canonical_value(older), canonical_value(newer))

    def add(self, attribute: str, older: Value, newer: Value) -> bool:
        """Record ``older ≺ newer``; returns ``False`` when it contradicts O_d."""
        try:
            self.order_for(attribute).add(canonical_value(older), canonical_value(newer))
            return True
        except CyclicOrderError:
            self.conflict = True
            return False

    def size(self) -> int:
        """Total number of deduced order edges."""
        return sum(len(order) for order in self.orders.values())

    def dominated_values(self, attribute: str, domain: Iterable[Value]) -> List[Value]:
        """Values of *domain* that are known to be less current than some other value."""
        order = self.order_for(attribute)
        domain = list(domain)
        keys = [canonical_value(value) for value in domain]
        dominated = []
        for value, key in zip(domain, keys):
            if any(other != key and order.precedes(key, other) for other in keys):
                dominated.append(value)
        return dominated

    def undominated_values(self, attribute: str, domain: Iterable[Value]) -> List[Value]:
        """Values of *domain* not known to be dominated (the candidate true values)."""
        dominated = {canonical_value(value) for value in self.dominated_values(attribute, domain)}
        return [value for value in domain if canonical_value(value) not in dominated]


#: Per attribute, each value → the values deduced more current than it.
_Successors = Dict[Hashable, Set[Hashable]]


def _closure(successors: _Successors) -> Optional[_Successors]:
    """Each value's successors in the transitive closure; ``None`` on a cycle."""
    closure: _Successors = {}
    for start, direct in successors.items():
        reached: Set[Hashable] = set()
        stack = list(direct)
        while stack:
            node = stack.pop()
            if node not in reached:
                reached.add(node)
                stack.extend(successors.get(node, ()))
        if start in reached:
            return None
        closure[start] = reached
    return closure


def _close_orders(result: DeducedOrders) -> None:
    """Transitively close the deduced per-attribute orders (acyclic by construction)."""
    for attribute, order in result.orders.items():
        result.orders[attribute] = PartialOrder.from_acyclic(_closure(order.successor_map()))


def deduce_order(encoder: IncrementalEncoder) -> DeducedOrders:
    """Run ``DeduceOrder`` on *encoder*'s specification.

    Propagation runs on ``encoder.session``, which holds Φ(S_e), under
    ``encoder.assumptions`` (the guard literals of the live CFD clauses).
    Only Φ(S_e) propagates: a session forgets what its solves learned, so
    O_d does not depend on which queries ran on it before.

    Beyond the literal loop of Fig. 5, the implementation iterates to a
    fixpoint: every order of the transitive closure that propagation did not
    force is fed back into it as a unit, so that constraint bodies mentioning
    it can fire.  A forced negative literal already is the reversed order,
    and Φ's order axioms close orders over used values transitively, so the
    feedback finds nothing on an encoding of this package; it is kept as a
    check.  Each injected literal holds in every valid completion, so the
    extension is sound; it only makes the deduced order O_d larger.  The
    forced set only grows from round to round, so each round records only
    the literals no earlier round forced, and closes only the attributes
    they touch.

    A propagation conflict, or forced orders that form a cycle, mean that no
    valid completion exists: the result then has ``conflict`` set and no
    orders.

    The loop ends: the forced set only grows, each round but the last adds
    at least one ordering literal to it, and no variable is forced both ways
    without a conflict.  So there are at most ``registry.num_variables + 1``
    rounds.
    """
    session, registry = encoder.session, encoder.encoding.registry
    injected = set(encoder.assumptions)
    recorded: Set[int] = set()
    successors: Dict[str, _Successors] = {}
    closures: Dict[str, _Successors] = {}
    while True:
        forced, conflict = session.propagate(sorted(injected))
        if conflict:
            return DeducedOrders(conflict=True, forced_literals=forced)
        touched: Set[str] = set()
        for literal in forced:
            if literal in recorded:
                continue
            recorded.add(literal)
            atom = registry.get(abs(literal))
            if atom is None:
                # Guard/auxiliary literal of the incremental encoding: carries
                # no ordering information.
                continue
            # ¬(a1 ≺ a2) is the literal of a2 ≺ a1.
            older, newer = (atom.older, atom.newer) if literal > 0 else (atom.newer, atom.older)
            successors.setdefault(atom.attribute, {}).setdefault(older, set()).add(newer)
            touched.add(atom.attribute)
        fed_back: List[int] = []
        for attribute in touched:
            closure = _closure(successors[attribute])
            if closure is None:
                return DeducedOrders(conflict=True, forced_literals=forced)
            closures[attribute] = closure
            for older, reached in closure.items():
                for newer in reached:
                    literal = registry.find_for(attribute, older, newer)
                    if literal is not None and literal not in recorded:
                        fed_back.append(literal)
        if not fed_back:
            break
        injected.update(fed_back)
    return DeducedOrders(
        orders={
            attribute: PartialOrder.from_acyclic(closure) for attribute, closure in closures.items()
        },
        forced_literals=forced,
    )


def naive_deduce(encoder: IncrementalEncoder, max_pairs: Optional[int] = None) -> DeducedOrders:
    """Run ``NaiveDeduce``: one SAT call per ordered pair of used values.

    The refutation of ``older ≺ newer`` assumes its negated signed literal,
    which is ``newer ≺ older``, next to the encoder's guard literals; every
    call reuses the clauses ``encoder.session`` already holds.

    Parameters
    ----------
    encoder:
        The encoder holding Φ(S_e).
    max_pairs:
        Optional cap on the number of pairs examined (benchmarks use it to
        keep the deliberately-slow baseline bounded); ``None`` checks all.
    """
    encoding, session = encoder.encoding, encoder.session
    base_assumptions = list(encoder.assumptions)
    result = DeducedOrders(sat_calls=1)
    if not session.solve(base_assumptions).satisfiable:
        result.conflict = True
        return result
    examined = 0
    for attribute, values in encoding.omega.used_values.items():
        for older in values:
            for newer in values:
                if canonical_value(older) == canonical_value(newer):
                    continue
                if max_pairs is not None and examined >= max_pairs:
                    _close_orders(result)
                    return result
                examined += 1
                variable = encoding.find_literal(OrderLiteral(attribute, older, newer))
                if variable is None:
                    # The atom never occurs in Φ(S_e); it cannot be implied.
                    continue
                refutation = session.solve(base_assumptions + [-variable])
                result.sat_calls += 1
                if not refutation.satisfiable:
                    result.add(attribute, older, newer)
    _close_orders(result)
    return result
