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

O_d is kept closed: :class:`DeducedOrders` holds, per attribute, each
value's set of values above it, which is the closure ``DeduceOrder``
computes anyway, and :meth:`DeducedOrders.add` keeps it closed as pairs come
in (the incremental transitive closure of Italiano, 1986).  Every query of
O_d — :meth:`~DeducedOrders.holds`, the dominated values that ``Suggest``
reads, and true-value extraction — is then a set lookup, and a
:class:`~repro.core.partial_order.PartialOrder` is built only when
:meth:`~DeducedOrders.order_for` asks for one.

``NaiveDeduce`` is the baseline the paper compares against: for every ordered
pair of values it asks the SAT solver whether Φ(S_e) ∧ ¬x is unsatisfiable
(Lemma 6), i.e. one SAT call per candidate order, on the same session.
Both assume the encoder's guard literals in every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set

from repro.core.partial_order import PartialOrder
from repro.core.values import Value
from repro.encoding.incremental import IncrementalEncoder
from repro.encoding.variables import OrderLiteral, canonical_value

__all__ = ["DeducedOrders", "deduce_order", "naive_deduce"]


#: Per attribute, each value → the values deduced more current than it.
_Successors = Dict[Hashable, Set[Hashable]]


@dataclass
class DeducedOrders:
    """The deduced partial temporal order O_d (value-level, per attribute), kept closed.

    Attributes
    ----------
    above:
        Per attribute, each canonical value → the set of values deduced more
        current than it.  The sets are transitively closed (``b`` in
        ``above[A][a]`` and ``c`` in ``above[A][b]`` put ``c`` in
        ``above[A][a]``), so every query is a set lookup; a value with
        nothing above it has no entry.
    conflict:
        ``True`` when deduction exposed that the specification is invalid.
    forced_literals:
        The raw SAT literals that were forced (diagnostics).
    sat_calls:
        Number of SAT-solver invocations (0 for ``DeduceOrder``).
    """

    above: Dict[str, _Successors] = field(default_factory=dict)
    conflict: bool = False
    forced_literals: List[int] = field(default_factory=list)
    sat_calls: int = 0

    @property
    def orders(self) -> Dict[str, PartialOrder]:
        """Each attribute with a deduced order → that order, built on each read (see :meth:`order_for`)."""
        return {attribute: self.order_for(attribute) for attribute in self.above}

    def order_for(self, attribute: str) -> PartialOrder:
        """The deduced order of *attribute* as a new :class:`PartialOrder` (empty when nothing is known).

        Its direct edges are the closed pairs; changing it leaves this
        object as it is.
        """
        return PartialOrder.from_acyclic(self.above.get(attribute, {}))

    def holds(self, attribute: str, older: Value, newer: Value) -> bool:
        """Return ``True`` when ``older ≺ newer`` was deduced for *attribute*."""
        return canonical_value(newer) in self.above.get(attribute, {}).get(canonical_value(older), ())

    def add(self, attribute: str, older: Value, newer: Value) -> bool:
        """Record ``older ≺ newer`` and keep the order closed; ``False`` when it contradicts O_d.

        A contradiction (``newer ≺ older`` holds already, or the two values
        are equal) sets ``conflict`` and records nothing.  Otherwise every
        value at or below ``older`` gains ``newer`` and what lies above it.
        """
        older, newer = canonical_value(older), canonical_value(newer)
        above = self.above.get(attribute, {})
        if older == newer or older in above.get(newer, ()):
            self.conflict = True
            return False
        if newer in above.get(older, ()):
            return True
        gained = {newer} | above.get(newer, set())
        for reached in above.values():
            if older in reached:
                reached |= gained
        above.setdefault(older, set()).update(gained)
        self.above[attribute] = above
        return True

    def size(self) -> int:
        """Total number of deduced pairs ``a ≺ b`` (the closed order's size)."""
        return sum(len(reached) for above in self.above.values() for reached in above.values())

    def dominated_values(self, attribute: str, domain: Iterable[Value]) -> List[Value]:
        """Values of *domain* that are known to be less current than some other value."""
        above = self.above.get(attribute, {})
        domain = list(domain)
        keys = {canonical_value(value) for value in domain}
        dominated = []
        for value in domain:
            reached = above.get(canonical_value(value))
            if reached is not None and not reached.isdisjoint(keys):
                dominated.append(value)
        return dominated

    def undominated_values(self, attribute: str, domain: Iterable[Value]) -> List[Value]:
        """Values of *domain* not known to be dominated (the candidate true values)."""
        domain = list(domain)
        dominated = {canonical_value(value) for value in self.dominated_values(attribute, domain)}
        return [value for value in domain if canonical_value(value) not in dominated]


def _close(above: _Successors) -> bool:
    """Close *above* in place, each value's set taking in the sets of the values in it; ``True`` if any grew.

    Sweeps repeat until no set grows.  With Φ's order axioms, propagation
    forces orders that are closed already, so the usual run is one sweep of
    subset checks that adds nothing.
    """
    grew, sweep = False, True
    while sweep:
        sweep = False
        for reached in above.values():
            for value in tuple(reached):
                further = above.get(value)
                if further is not None and not further <= reached:
                    reached |= further
                    grew = sweep = True
    return grew


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
    atom_of = registry.get
    injected = set(encoder.assumptions)
    recorded: Set[int] = set()
    above: Dict[str, _Successors] = {}
    while True:
        forced, conflict = session.propagate(sorted(injected))
        if conflict:
            return DeducedOrders(conflict=True, forced_literals=forced)
        new = [literal for literal in forced if literal not in recorded]
        recorded.update(new)
        touched: Set[str] = set()
        for literal in new:
            atom = atom_of(abs(literal))
            if atom is None:
                # Guard/auxiliary literal of the incremental encoding: carries
                # no ordering information.
                continue
            # ¬(a1 ≺ a2) is the literal of a2 ≺ a1.
            older, newer = (atom.older, atom.newer) if literal > 0 else (atom.newer, atom.older)
            attribute = atom.attribute
            values = above.get(attribute)
            if values is None:
                values = above[attribute] = {}
            reached = values.get(older)
            if reached is None:
                values[older] = {newer}
            else:
                reached.add(newer)
            touched.add(attribute)
        fed_back: List[int] = []
        for attribute in touched:
            closed = above[attribute]
            # A pair the closure does not add was forced now or handled by
            # an earlier round, so only a growing closure has pairs to feed back.
            if not _close(closed):
                continue
            if any(value in reached for value, reached in closed.items()):
                return DeducedOrders(conflict=True, forced_literals=forced)
            for older, reached in closed.items():
                for newer in reached:
                    literal = registry.find_for(attribute, older, newer)
                    if literal is not None and literal not in recorded:
                        fed_back.append(literal)
        if not fed_back:
            break
        injected.update(fed_back)
    return DeducedOrders(above=above, forced_literals=forced)


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
    return result
