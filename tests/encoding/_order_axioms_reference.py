"""The object-based order-axiom emitters, the reference for the integer one.

Here the asymmetry and transitivity axioms of each ``≺^v_A`` are built as
:class:`InstanceConstraint` objects — for a cold encode, for the incremental
encoder's full encode and for its deltas — deduplicated by their
instance-constraint key and turned into clauses by ``_constraint_to_clause``.
The tests check that :func:`repro.encoding.cnf_encoder.emit_order_axioms`
and the incremental encoder write exactly the same clauses, in the same
order, with the same variable numbers.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Set, Tuple

from repro.core.instance import TemporalOrderDelta
from repro.core.partial_order import PartialOrder
from repro.core.values import Value
from repro.encoding.cnf_encoder import _constraint_to_clause
from repro.encoding.compiled import instantiate_compiled
from repro.encoding.incremental import IncrementalEncoder
from repro.encoding.instance_constraints import (
    InstanceConstraint,
    InstanceConstraintSet,
    InstantiationOptions,
    _constraint_key,
)
from repro.encoding.variables import OrderLiteral, OrderVariableRegistry, canonical_value
from repro.solvers.cnf import CNF

from tests.encoding._instantiate_reference import reference_instantiate

STRUCTURAL_KINDS = ("asymmetry", "transitivity")


def structural_axioms(
    omega: InstanceConstraintSet, options: InstantiationOptions
) -> List[InstanceConstraint]:
    """Ω's order axioms as objects, in the order the from-scratch path emitted them."""
    axioms: List[InstanceConstraint] = []
    for attribute, values in omega.used_values.items():
        if options.include_asymmetry:
            for older, newer in itertools.combinations(values, 2):
                axioms.append(
                    InstanceConstraint(
                        body=(OrderLiteral(attribute, older, newer),),
                        head=OrderLiteral(attribute, newer, older),
                        negated_head=True,
                        source_kind="asymmetry",
                        source_name=attribute,
                    )
                )
        if not options.include_transitivity:
            continue
        transitive_values = values
        cap = options.transitivity_cap
        if cap is not None and len(values) > cap:
            keys = omega.conditional_keys.get(attribute, set())
            transitive_values = [value for value in values if canonical_value(value) in keys]
        for first, second, third in itertools.permutations(transitive_values, 3):
            axioms.append(
                InstanceConstraint(
                    body=(
                        OrderLiteral(attribute, first, second),
                        OrderLiteral(attribute, second, third),
                    ),
                    head=OrderLiteral(attribute, first, third),
                    source_kind="transitivity",
                    source_name=attribute,
                )
            )
    return axioms


def reference_encoding(spec, options: InstantiationOptions) -> Tuple[CNF, OrderVariableRegistry]:
    """Φ(S_e) through the object path: Ω plus its axioms, deduplicated, one fresh registry."""
    omega = reference_instantiate(spec, options)
    seen = {_constraint_key(constraint) for constraint in omega}
    registry = OrderVariableRegistry()
    cnf = CNF()
    for constraint in omega:
        cnf.add_clause(_constraint_to_clause(constraint, registry))
    for constraint in structural_axioms(omega, options):
        key = _constraint_key(constraint)
        if key in seen:
            continue
        seen.add(key)
        cnf.add_clause(_constraint_to_clause(constraint, registry))
    if omega.inherently_invalid and not cnf.has_empty_clause():
        cnf.add_clause([])
    cnf.num_variables = max(cnf.num_variables, registry.num_variables)
    return cnf, registry


class ReferenceIncrementalEncoder(IncrementalEncoder):
    """The incremental encoder with its order axioms built and keyed as objects.

    The full encode pushes Ω and then its axioms through the shared
    deduplication keys.  A delta collects its axioms as objects — a set of
    unordered pairs for asymmetry, the admission keys (which include every
    axiom's) for transitivity — and pushes them after the delta's other
    clauses.
    """

    def _full_encode(self) -> None:
        spec = self._spec
        omega = instantiate_compiled(spec, self._program)
        self._omega.inherently_invalid = omega.inherently_invalid
        self._omega.invalid_reason = omega.invalid_reason
        self._omega.used_values = omega.used_values
        self._used_values = omega.used_values

        self._asym_pairs: Dict[str, Set[frozenset]] = {}
        for constraint in omega.constraints + structural_axioms(omega, self._options):
            if constraint.source_kind == "cfd":
                key = _constraint_key(constraint)
                if key in self._guards:
                    continue
                self._push_guarded(constraint, key, initial=True)
            else:
                key = _constraint_key(constraint)
                if key in self._keys:
                    continue
                self._keys.add(key)
                self._push_constraint(constraint, initial=True)
        self._session.ensure_variables(self._registry.num_variables)
        if self._omega.inherently_invalid:
            return  # the encoding is permanently unsatisfiable; no delta state needed

        # Seed the delta-tracking state so apply_delta() can diff against it.
        for attribute, values in self._used_values.items():
            self._used_keys[attribute] = {canonical_value(value) for value in values}
        for constraint in self._omega.constraints:
            if constraint.source_kind in STRUCTURAL_KINDS:
                continue
            is_conditional = bool(constraint.body) or constraint.head is None
            if not is_conditional:
                continue
            for literal in constraint.body:
                bucket = self._conditional.setdefault(literal.attribute, set())
                bucket.add(literal.older)
                bucket.add(literal.newer)
            if constraint.head is not None:
                bucket = self._conditional.setdefault(constraint.head.attribute, set())
                bucket.add(constraint.head.older)
                bucket.add(constraint.head.newer)
        for constraint in self._omega.constraints:
            if constraint.source_kind == "cfd" or not constraint.is_fact():
                continue
            order = self._fact_orders.setdefault(constraint.head.attribute, PartialOrder())
            order.try_add(
                canonical_value(constraint.head.older), canonical_value(constraint.head.newer)
            )
        for attribute, values in self._used_values.items():
            keys = [canonical_value(value) for value in values]
            if self._options.include_asymmetry:
                self._asym_pairs[attribute] = {
                    frozenset(pair) for pair in itertools.combinations(keys, 2)
                }
            if self._options.include_transitivity:
                cap = self._options.transitivity_cap
                if cap is not None and len(values) > cap:
                    applicable = self._conditional.get(attribute, set())
                    self._transitive_applied[attribute] = {k for k in keys if k in applicable}
                else:
                    self._transitive_applied[attribute] = set(keys)
        for attribute in spec.schema.attribute_names:
            self._adom_keys[attribute] = {
                canonical_value(value) for value in spec.instance.active_domain(attribute)
            }

    def _apply_delta(self, delta: TemporalOrderDelta) -> Dict[str, int]:
        self._delta_encodings += 1
        self._last_delta_clauses = 0
        self._last_delta_constraints = 0
        old_spec = self._spec
        new_spec = old_spec.extend(delta)
        self._spec = new_spec
        self._encoding.specification = new_spec
        if delta.is_empty() or self._omega.inherently_invalid:
            return self._delta_report()

        fresh: List[InstanceConstraint] = []
        self._delta_order_facts(old_spec, new_spec, fresh)
        self._delta_currency_constraints(new_spec, delta, fresh)
        new_cfd_constraints = self._delta_cfds(new_spec, delta)
        if not self._delta_fact_closure(fresh):
            self._last_delta_constraints = len(new_cfd_constraints) + 1
            return self._delta_report()
        structural = self._delta_structural_axioms(fresh + new_cfd_constraints)
        for constraint in fresh + structural:
            self._push_constraint(constraint, initial=False)
        self._last_delta_constraints = len(fresh) + len(new_cfd_constraints) + len(structural)
        self._session.ensure_variables(self._registry.num_variables)
        self._omega.used_values = self._used_values
        return self._delta_report()

    def _delta_structural_axioms(
        self, new_constraints: List[InstanceConstraint]
    ) -> List[InstanceConstraint]:
        touched: Set[str] = set()
        newly_used: Dict[str, List[Value]] = {}
        for constraint in new_constraints:
            is_conditional = bool(constraint.body) or constraint.head is None
            literals = list(constraint.body)
            if constraint.head is not None:
                literals.append(constraint.head)
            for literal in literals:
                touched.add(literal.attribute)
                for value in (literal.older, literal.newer):
                    if self._note_used(literal.attribute, value, is_conditional):
                        newly_used.setdefault(literal.attribute, []).append(value)

        out: List[InstanceConstraint] = []
        options = self._options
        for attribute in sorted(touched):
            values = self._used_values.get(attribute, [])
            if options.include_asymmetry:
                pairs = self._asym_pairs.setdefault(attribute, set())
                for new_value in newly_used.get(attribute, []):
                    new_key = canonical_value(new_value)
                    for other in values:
                        other_key = canonical_value(other)
                        if other_key == new_key:
                            continue
                        pair = frozenset((new_key, other_key))
                        if pair in pairs:
                            continue
                        pairs.add(pair)
                        self._admit(
                            InstanceConstraint(
                                body=(OrderLiteral(attribute, other, new_value),),
                                head=OrderLiteral(attribute, new_value, other),
                                negated_head=True,
                                source_kind="asymmetry",
                                source_name=attribute,
                            ),
                            out,
                        )
            if not options.include_transitivity:
                continue
            cap = options.transitivity_cap
            if cap is not None and len(values) > cap:
                conditional = self._conditional.get(attribute, set())
                applicable = [v for v in values if canonical_value(v) in conditional]
            else:
                applicable = list(values)
            applied = self._transitive_applied.setdefault(attribute, set())
            fresh_values = [
                value for value in applicable if canonical_value(value) not in applied
            ]
            if not fresh_values:
                continue
            # Enumerate only the ordered triples containing at least one fresh
            # value, by pinning a fresh value at each of the three positions
            # (3·|fresh|·n² instead of n³ per delta); triples with several
            # fresh values are generated more than once and deduplicated by
            # the admission key set.
            for fresh_value in fresh_values:
                for left, right in itertools.permutations(applicable, 2):
                    for first, second, third in (
                        (fresh_value, left, right),
                        (left, fresh_value, right),
                        (left, right, fresh_value),
                    ):
                        first_key = canonical_value(first)
                        second_key = canonical_value(second)
                        third_key = canonical_value(third)
                        if (
                            first_key == second_key
                            or second_key == third_key
                            or first_key == third_key
                        ):
                            continue
                        self._admit(
                            InstanceConstraint(
                                body=(
                                    OrderLiteral(attribute, first, second),
                                    OrderLiteral(attribute, second, third),
                                ),
                                head=OrderLiteral(attribute, first, third),
                                source_kind="transitivity",
                                source_name=attribute,
                            ),
                            out,
                        )
            applied.update(canonical_value(value) for value in fresh_values)
        return out
