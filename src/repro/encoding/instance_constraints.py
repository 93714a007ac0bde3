"""Instantiation of a specification into instance constraints Ω(S_e).

This is the ``Instantiation`` procedure of paper Section V-A: the partial
currency orders, the currency constraints and the constant CFDs of a
specification are all expressed as a uniform set of implications over the
value-level ordering atoms ``a1 ≺^v_A a2``:

* **currency orders** — every recorded edge ``t1 ⪯_A t2`` with differing
  values becomes the fact ``true → t1[A] ≺^v t2[A]``;
* **currency constraints** — each constraint is instantiated on tuple pairs:
  the comparison predicates are evaluated to truth values and the order
  predicates are replaced by value-level atoms;
* **constant CFDs** — ``t_p[X] → t_p[B]`` becomes, for every other value ``b``
  of ``B``'s active domain, the implication "if every other X value is less
  current than the pattern values then ``b ≺^v t_p[B]``".

Ω holds the constraints that carry information: these three kinds, the
closure of the ground facts and, when the facts form a cycle, a conflict.
The structural axioms (asymmetry and transitivity of each ``≺^v_A``) follow
from the used values, so Ω keeps only their inputs — ``used_values`` and, for
the transitivity cap, ``conditional_keys`` — and the encoder writes them
straight into Φ (:func:`~repro.encoding.cnf_encoder.emit_order_axioms`).

Two instantiation modes are provided.  The *naive* mode follows the paper
literally and enumerates ordered pairs of tuples — O(|Σ|·|I_t|²).  The
*projected* mode (the default) first projects tuples onto the attributes each
constraint mentions and enumerates distinct projections, which produces exactly
the same set of deduplicated instance constraints but is insensitive to how
many duplicate tuples an entity has; the ablation benchmark compares the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cfd import ConstantCFD
from repro.core.constraints import (
    ConstantComparisonPredicate,
    CurrencyConstraint,
    OrderPredicate,
    TupleComparisonPredicate,
)
from repro.core.errors import EncodingError
from repro.core.specification import Specification
from repro.core.values import Value, values_equal
from repro.encoding.variables import OrderLiteral, canonical_value

__all__ = ["InstanceConstraint", "InstantiationOptions", "InstanceConstraintSet", "instantiate"]


@dataclass(frozen=True)
class InstanceConstraint:
    """One instance constraint: ``body → head`` over ordering atoms.

    ``head is None`` encodes an implication to *false* (the body must not hold);
    ``negated_head`` encodes a negative conclusion (no kind in Ω has one: the
    asymmetry axioms go straight into Φ).
    """

    body: Tuple[OrderLiteral, ...]
    head: Optional[OrderLiteral]
    negated_head: bool = False
    source_kind: str = "currency"
    source_name: str = ""

    def __post_init__(self) -> None:
        if self.head is None and self.negated_head:
            raise EncodingError("a constraint without a head cannot have a negated head")

    def is_fact(self) -> bool:
        """``True`` for ground facts (empty body, positive head)."""
        return not self.body and self.head is not None and not self.negated_head

    def __str__(self) -> str:  # pragma: no cover - presentation only
        body = " ∧ ".join(str(lit) for lit in self.body) if self.body else "true"
        if self.head is None:
            head = "false"
        else:
            head = ("¬" if self.negated_head else "") + str(self.head)
        return f"{body} → {head}"


@dataclass
class InstantiationOptions:
    """Tuning knobs for the instantiation procedure.

    Attributes
    ----------
    mode:
        ``"projected"`` (default) or ``"naive"`` — see the module docstring.
    deduplicate:
        Drop duplicate instance constraints (always safe; the naive mode with
        deduplication disabled matches the paper's cost model).
    include_transitivity / include_asymmetry:
        Emit the structural axioms of ``≺^v_A`` (into Φ; they are not part of
        Ω).
    transitivity_cap:
        When an attribute has more than this many *used* values, transitivity
        axioms are restricted to the values appearing in conditional
        constraints (ground facts are closed transitively beforehand, so no
        information is lost for deduction; extremely long conflict cycles
        through fact-only values may go undetected).  ``None`` disables the cap.
    """

    mode: str = "projected"
    deduplicate: bool = True
    include_transitivity: bool = True
    include_asymmetry: bool = True
    transitivity_cap: Optional[int] = 80


@dataclass
class InstanceConstraintSet:
    """The result of instantiation: Ω(S_e) plus bookkeeping used by the encoder.

    The order axioms' inputs: ``used_values`` per attribute in first-use
    order, and the canonical ``conditional_keys`` of those used in a
    constraint with a body (or a conflict).
    """

    constraints: List[InstanceConstraint] = field(default_factory=list)
    used_values: Dict[str, List[Value]] = field(default_factory=dict)
    conditional_keys: Dict[str, Set[Hashable]] = field(default_factory=dict)
    inherently_invalid: bool = False
    invalid_reason: str = ""

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def by_kind(self, *kinds: str) -> List[InstanceConstraint]:
        """Return the constraints whose ``source_kind`` is one of *kinds*."""
        wanted = set(kinds)
        return [constraint for constraint in self.constraints if constraint.source_kind in wanted]

    def facts(self) -> List[InstanceConstraint]:
        """Ground facts (empty body)."""
        return [constraint for constraint in self.constraints if constraint.is_fact()]


def _constraint_key(constraint: InstanceConstraint) -> Tuple:
    """Deduplication key: the body atoms as a set, the head atom and its sign."""
    head = constraint.head
    return (
        frozenset((lit.attribute, lit.older, lit.newer) for lit in constraint.body),
        None if head is None else (head.attribute, head.older, head.newer),
        constraint.negated_head,
    )


class _Deduplicator:
    """Tracks emitted constraints so duplicates are filtered out."""

    def __init__(self, enabled: bool) -> None:
        self._enabled = enabled
        self._seen: Set[Tuple] = set()

    def admit(self, constraint: InstanceConstraint) -> bool:
        if not self._enabled:
            return True
        key = _constraint_key(constraint)
        if key in self._seen:
            return False
        self._seen.add(key)
        return True


def instantiate(spec: Specification, options: InstantiationOptions | None = None) -> InstanceConstraintSet:
    """Build Ω(S_e) for *spec* (paper procedure ``Instantiation``)."""
    options = options or InstantiationOptions()
    if options.mode not in ("projected", "naive"):
        raise EncodingError(f"unknown instantiation mode {options.mode!r}")
    result = InstanceConstraintSet()
    dedup = _Deduplicator(options.deduplicate)

    def emit(constraint: InstanceConstraint) -> None:
        if dedup.admit(constraint):
            result.constraints.append(constraint)

    _instantiate_currency_orders(spec, emit)
    _instantiate_currency_constraints(spec, options, emit)
    _instantiate_cfds(spec, emit)
    _close_ground_facts(result, emit)

    # Values per attribute that occur in at least one emitted literal.
    used: Dict[str, List[Value]] = {}
    conditional: Dict[str, Set[Hashable]] = {}

    def note(attribute: str, value: Value, is_conditional: bool) -> None:
        bucket = used.setdefault(attribute, [])
        key = canonical_value(value)
        if not any(canonical_value(existing) == key for existing in bucket):
            bucket.append(value)
        if is_conditional:
            conditional.setdefault(attribute, set()).add(key)

    for constraint in result.constraints:
        is_conditional = bool(constraint.body) or constraint.head is None
        for literal in constraint.body:
            note(literal.attribute, literal.older, is_conditional)
            note(literal.attribute, literal.newer, is_conditional)
        if constraint.head is not None:
            note(constraint.head.attribute, constraint.head.older, is_conditional)
            note(constraint.head.attribute, constraint.head.newer, is_conditional)
    result.used_values = used
    result.conditional_keys = conditional
    return result


# -- currency orders ---------------------------------------------------------


def _instantiate_currency_orders(spec: Specification, emit) -> None:
    instance = spec.instance
    for attribute, order in spec.temporal_instance.orders.items():
        for older_tid, newer_tids in order.successor_map().items():
            older_value = instance[older_tid][attribute]
            for newer_tid in newer_tids:
                newer_value = instance[newer_tid][attribute]
                if older_value == newer_value:
                    continue
                emit(
                    InstanceConstraint(
                        body=(),
                        head=OrderLiteral(attribute, older_value, newer_value),
                        source_kind="order",
                        source_name=f"{older_tid}≺{newer_tid}",
                    )
                )


# -- currency constraints -----------------------------------------------------


def _projections(spec: Specification, attributes: Sequence[str]) -> List[Dict[str, Value]]:
    """Distinct projections of the entity tuples onto *attributes*."""
    seen: Set[Tuple[Hashable, ...]] = set()
    projections: List[Dict[str, Value]] = []
    for item in spec.instance:
        row = {attribute: item[attribute] for attribute in attributes}
        key = tuple(canonical_value(row[attribute]) for attribute in attributes)
        if key in seen:
            continue
        seen.add(key)
        projections.append(row)
    return projections


def _instantiate_one_pair(
    constraint: CurrencyConstraint,
    row1: Dict[str, Value],
    row2: Dict[str, Value],
) -> Optional[InstanceConstraint]:
    """Instantiate *constraint* on one ordered pair of (projected) rows.

    Returns ``None`` when the instantiated constraint is vacuously true for
    the pair (a comparison predicate is false, a body order predicate relates
    equal values, or the conclusion relates equal values).

    A pair whose body touches a missing value is treated as vacuous when the
    constraint relates *different* attributes: a missing value is pinned at
    the bottom of its own currency order by convention, but it is not temporal
    evidence about other attributes, and using it as such would let one
    incomplete observation misorder attributes it says nothing about.
    Single-attribute constraints (e.g. ϕ4 "more kids is more current") keep
    the paper's ``null < k`` behaviour, which Example 2(b) relies on.
    """
    body_attributes = {
        attribute
        for predicate in constraint.body
        for attribute in predicate.referenced_attributes()
    }
    cross_attribute = bool(body_attributes - {constraint.conclusion_attribute})
    if cross_attribute:
        for attribute in body_attributes:
            if values_equal(row1[attribute], None) or values_equal(row2[attribute], None):
                return None
    body: List[OrderLiteral] = []
    for predicate in constraint.body:
        if isinstance(predicate, OrderPredicate):
            older = row1[predicate.attribute]
            newer = row2[predicate.attribute]
            if values_equal(older, newer):
                return None
            body.append(OrderLiteral(predicate.attribute, older, newer))
        elif isinstance(predicate, TupleComparisonPredicate):
            from repro.core.values import apply_operator

            if not apply_operator(row1[predicate.attribute], predicate.op, row2[predicate.attribute]):
                return None
        elif isinstance(predicate, ConstantComparisonPredicate):
            from repro.core.values import apply_operator

            source = row1 if predicate.tuple_index == 1 else row2
            if not apply_operator(source[predicate.attribute], predicate.op, predicate.constant):
                return None
        else:  # pragma: no cover - defensive
            raise EncodingError(f"unsupported predicate {predicate!r}")
    conclusion = constraint.conclusion_attribute
    older = row1[conclusion]
    newer = row2[conclusion]
    if values_equal(older, newer):
        return None
    if values_equal(newer, None):
        # A missing value carries no currency information and is pinned at the
        # bottom of every currency order, so a constraint instance that would
        # rank it above a present value is treated as vacuous (this arises when
        # the framework adds a user-input tuple that answers only some
        # attributes; see DESIGN.md).
        return None
    return InstanceConstraint(
        body=tuple(body),
        head=OrderLiteral(conclusion, older, newer),
        source_kind="currency",
        source_name=constraint.name or str(constraint),
    )


def _instantiate_currency_constraints(
    spec: Specification, options: InstantiationOptions, emit
) -> None:
    # Many constraints reference the same attribute set (e.g. hundreds of
    # value-transition constraints on `status`), so row projections are
    # memoised per attribute tuple for the duration of this instantiation —
    # in projected mode (distinct projections, which makes that mode
    # insensitive to the number of tuples) and in naive mode alike (the full
    # row list, which is identical for every constraint sharing an attribute
    # list and was previously rebuilt per constraint).
    projection_cache: Dict[Tuple[str, ...], List[Dict[str, Value]]] = {}
    naive_cache: Dict[Tuple[str, ...], List[Dict[str, Value]]] = {}
    for constraint in spec.currency_constraints:
        attributes = tuple(sorted(constraint.referenced_attributes()))
        if options.mode == "projected":
            if attributes not in projection_cache:
                projection_cache[attributes] = _projections(spec, attributes)
            rows: List[Dict[str, Value]] = projection_cache[attributes]
        else:
            if attributes not in naive_cache:
                naive_cache[attributes] = [
                    {attribute: item[attribute] for attribute in attributes}
                    for item in spec.instance
                ]
            rows = naive_cache[attributes]
        for row1, row2 in itertools.permutations(rows, 2):
            instantiated = _instantiate_one_pair(constraint, row1, row2)
            if instantiated is not None:
                emit(instantiated)


# -- constant CFDs --------------------------------------------------------------


def _in_domain(value: Value, domain: Iterable[Value]) -> bool:
    return any(values_equal(value, existing) for existing in domain)


def _instantiate_cfds(spec: Specification, emit) -> None:
    instance = spec.instance
    for cfd in spec.cfds:
        lhs_pattern = cfd.lhs_pattern
        # The CFD can only fire when the current tuple matches the LHS pattern;
        # current values always come from the active domain, so a pattern
        # constant outside the active domain makes the CFD vacuous.
        if any(
            not _in_domain(value, instance.active_domain(attribute))
            for attribute, value in lhs_pattern.items()
        ):
            continue
        body: List[OrderLiteral] = []
        for attribute, pattern_value in sorted(lhs_pattern.items()):
            for other in instance.active_domain(attribute):
                if values_equal(other, pattern_value):
                    continue
                body.append(OrderLiteral(attribute, other, pattern_value))
        # Every other value of the RHS attribute is forced below the pattern
        # constant.  The paper defines ≺^v over adom ∪ CFD constants, so the
        # constant may lie outside the active domain — in that case the CFD
        # acts as a *repair*: when it fires, its constant becomes the true
        # value of the RHS attribute even though no tuple carries it.
        rhs_domain = instance.active_domain(cfd.rhs_attribute)
        for other in rhs_domain:
            if values_equal(other, cfd.rhs_value):
                continue
            emit(
                InstanceConstraint(
                    body=tuple(body),
                    head=OrderLiteral(cfd.rhs_attribute, other, cfd.rhs_value),
                    source_kind="cfd",
                    source_name=cfd.name or str(cfd),
                )
            )


# -- ground-fact closure -----------------------------------------------------------


def _close_ground_facts(result: InstanceConstraintSet, emit) -> None:
    """Transitively close the ground facts of Ω(S_e).

    Facts (unit constraints) form a ground order per attribute.  Closing them
    here keeps ``DeduceOrder`` independent of how many transitivity axioms the
    encoder emits (see :class:`InstantiationOptions.transitivity_cap`) and
    detects cycles among facts eagerly: a cycle makes the whole specification
    invalid, recorded as an empty implication ``true → false``.
    """
    from repro.core.errors import CyclicOrderError
    from repro.core.partial_order import PartialOrder

    facts_by_attribute: Dict[str, List[InstanceConstraint]] = {}
    for constraint in result.constraints:
        if constraint.is_fact():
            facts_by_attribute.setdefault(constraint.head.attribute, []).append(constraint)
    for attribute, facts in facts_by_attribute.items():
        order = PartialOrder()
        direct: Set[Tuple[Hashable, Hashable]] = set()
        for fact in facts:
            older = canonical_value(fact.head.older)
            newer = canonical_value(fact.head.newer)
            direct.add((older, newer))
            try:
                order.add(older, newer)
            except CyclicOrderError:
                result.inherently_invalid = True
                result.invalid_reason = (
                    f"the ground currency facts on attribute {attribute!r} form a cycle"
                )
                emit(InstanceConstraint(body=(), head=None, source_kind="conflict", source_name=attribute))
                return
        for older, newer in order.transitive_closure_pairs():
            if (older, newer) in direct:
                continue
            emit(
                InstanceConstraint(
                    body=(),
                    head=OrderLiteral(attribute, older, newer),
                    source_kind="closure",
                    source_name=attribute,
                )
            )
