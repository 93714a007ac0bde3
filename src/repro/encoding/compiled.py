"""The ``Instantiation`` procedure: Σ ∪ Γ compiled once, stamped per entity.

Σ and Γ are shared by every entity of a dataset, so their *structure* is
analysed once per (schema, Σ, Γ, options) into a
:class:`CompiledConstraintProgram`, and building Ω(S_e) for an entity is a
template-stamping pass over its tuples:

* every currency constraint is compiled into a flat evaluator over
  *positional* rows (tuples aligned with the constraint's sorted attribute
  list): pre-resolved attribute→index maps, pre-bound comparison operators,
  hoisted cross-attribute NULL checks, and order-predicate steps that emit
  plain value triples — :class:`~repro.encoding.variables.OrderLiteral`
  objects are only materialised for constraint instances that survive
  deduplication;
* every constant CFD is compiled into its sorted LHS pattern items and
  pre-computed source label;
* deduplication uses O(1) keys (a dedicated set for ground facts, the
  classic frozenset key only for conditional constraints), and active-domain
  projections are computed once per attribute per entity.

The program is the one thing that builds Ω: :func:`instantiate` (compile,
then stamp), :func:`instantiate_compiled`, the cold
:func:`~repro.encoding.cnf_encoder.encode_specification` and both the full
encode and the deltas of the
:class:`~repro.encoding.incremental.IncrementalEncoder` all run on it.

:class:`ConstraintProgramCache` keys programs *structurally* (constraints are
frozen dataclasses, hence hashable by value), so a cache hit survives
pickling — this is what lets the process-pool workers of the
:class:`~repro.engine.ResolutionEngine` compile each dataset's program once
per worker and stamp it for every entity of every chunk they receive.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, FrozenSet, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.cfd import ConstantCFD
from repro.core.constraints import (
    ConstantComparisonPredicate,
    CurrencyConstraint,
    OrderPredicate,
    TupleComparisonPredicate,
)
from repro.core.errors import EncodingError
from repro.core.instance import EntityInstance
from repro.core.schema import RelationSchema
from repro.core.specification import Specification
from repro.core.values import Value, compare_values, is_null, values_equal
from repro.encoding.instance_constraints import (
    InstanceConstraint,
    InstanceConstraintSet,
    InstantiationOptions,
    _close_ground_facts,
    _constraint_key,
)
from repro.encoding.variables import OrderLiteral, canonical_value

__all__ = [
    "CompiledConstraintProgram",
    "ConstraintProgramCache",
    "compile_program",
    "instantiate",
    "instantiate_compiled",
]

#: An order atom as a plain ``(attribute, older, newer)`` triple.
Triple = Tuple[str, Value, Value]


# -- operator compilation ------------------------------------------------------


def _not_values_equal(left: Value, right: Value) -> bool:
    return not values_equal(left, right)


def _less(left: Value, right: Value) -> bool:
    return compare_values(left, right) < 0


def _less_equal(left: Value, right: Value) -> bool:
    return compare_values(left, right) <= 0


def _greater(left: Value, right: Value) -> bool:
    return compare_values(left, right) > 0


def _greater_equal(left: Value, right: Value) -> bool:
    return compare_values(left, right) >= 0


#: Comparison operators pre-bound to their value-semantics implementations
#: (identical to :func:`repro.core.values.apply_operator`, minus the dispatch).
_OPERATORS: Dict[str, Callable[[Value, Value], bool]] = {
    "=": values_equal,
    "!=": _not_values_equal,
    "<": _less,
    "<=": _less_equal,
    ">": _greater,
    ">=": _greater_equal,
}


# -- compiled constraint shapes -----------------------------------------------


class _CompiledCurrencyConstraint:
    """One currency constraint, pre-analysed for positional-row evaluation."""

    __slots__ = (
        "attributes",
        "checks",
        "order_steps",
        "null_check_indices",
        "conclusion_attribute",
        "conclusion_index",
        "source_name",
    )

    def __init__(self, constraint: CurrencyConstraint) -> None:
        attributes = tuple(sorted(constraint.referenced_attributes()))
        index = {attribute: position for position, attribute in enumerate(attributes)}
        self.attributes = attributes
        self.conclusion_attribute = constraint.conclusion_attribute
        self.conclusion_index = index[constraint.conclusion_attribute]
        self.source_name = constraint.name or str(constraint)

        body_attributes: Set[str] = set()
        checks: List[Callable] = []
        order_steps: List[Tuple[str, int]] = []
        for predicate in constraint.body:
            body_attributes |= predicate.referenced_attributes()
            if isinstance(predicate, OrderPredicate):
                order_steps.append((predicate.attribute, index[predicate.attribute]))
            elif isinstance(predicate, TupleComparisonPredicate):
                checks.append(_compile_tuple_check(index[predicate.attribute], predicate.op))
            elif isinstance(predicate, ConstantComparisonPredicate):
                checks.append(
                    _compile_constant_check(
                        predicate.tuple_index,
                        index[predicate.attribute],
                        predicate.op,
                        predicate.constant,
                    )
                )
            else:  # pragma: no cover - defensive
                raise EncodingError(f"unsupported predicate {predicate!r}")
        self.checks = tuple(checks)
        self.order_steps = tuple(order_steps)
        # A missing value is pinned at the bottom of its own currency order by
        # convention, but it is not temporal evidence about other attributes:
        # when the body mentions other attributes than the conclusion, a NULL
        # in any body attribute makes the pair vacuous, so one incomplete
        # observation cannot misorder attributes it says nothing about.
        # Single-attribute constraints (e.g. ϕ4 "more kids is more current")
        # keep the paper's ``null < k`` behaviour, which Example 2(b) relies on.
        cross_attribute = bool(body_attributes - {constraint.conclusion_attribute})
        self.null_check_indices = (
            tuple(index[attribute] for attribute in sorted(body_attributes))
            if cross_attribute
            else ()
        )

    def evaluate(
        self, row1: Tuple[Value, ...], row2: Tuple[Value, ...]
    ) -> Optional[Tuple[List[Tuple[str, Value, Value]], Tuple[str, Value, Value]]]:
        """Instantiate on one ordered pair; ``None`` when vacuous.

        The instance is vacuous when a comparison predicate is false, a body
        order predicate relates equal values, or the conclusion relates equal
        values.  It is also vacuous when it would rank a missing value above
        a present one: a NULL carries no currency information and sits at the
        bottom of every currency order (a user-input tuple that answers only
        some attributes is NULL on the others).

        Returns the body order-literal triples and the head triple as plain
        tuples; the caller materialises :class:`OrderLiteral` objects only for
        admitted instances.
        """
        for position in self.null_check_indices:
            if is_null(row1[position]) or is_null(row2[position]):
                return None
        for check in self.checks:
            if not check(row1, row2):
                return None
        body: List[Tuple[str, Value, Value]] = []
        for attribute, position in self.order_steps:
            older = row1[position]
            newer = row2[position]
            if values_equal(older, newer):
                return None
            body.append((attribute, older, newer))
        older = row1[self.conclusion_index]
        newer = row2[self.conclusion_index]
        if values_equal(older, newer) or is_null(newer):
            return None
        return body, (self.conclusion_attribute, older, newer)


def _compile_tuple_check(position: int, op: str) -> Callable:
    operator = _OPERATORS[op]

    def check(row1: Tuple[Value, ...], row2: Tuple[Value, ...]) -> bool:
        return operator(row1[position], row2[position])

    return check


def _compile_constant_check(tuple_index: int, position: int, op: str, constant: Value) -> Callable:
    operator = _OPERATORS[op]
    if tuple_index == 1:

        def check(row1: Tuple[Value, ...], row2: Tuple[Value, ...]) -> bool:
            return operator(row1[position], constant)

    else:

        def check(row1: Tuple[Value, ...], row2: Tuple[Value, ...]) -> bool:
            return operator(row2[position], constant)

    return check


class _CompiledCFD:
    """One constant CFD with its pattern pre-sorted and label pre-built."""

    __slots__ = ("lhs_items", "rhs_attribute", "rhs_value", "attributes", "source_name")

    def __init__(self, cfd: ConstantCFD) -> None:
        self.lhs_items = tuple(sorted(cfd.lhs_pattern.items()))
        self.rhs_attribute = cfd.rhs_attribute
        self.rhs_value = cfd.rhs_value
        self.attributes = cfd.referenced_attributes()
        self.source_name = cfd.name or str(cfd)


# -- the program ---------------------------------------------------------------


class CompiledConstraintProgram:
    """Σ ∪ Γ analysed once, ready to be stamped onto any entity of the schema."""

    def __init__(
        self,
        schema: RelationSchema,
        currency_constraints: Sequence[CurrencyConstraint],
        cfds: Sequence[ConstantCFD],
        options: Optional[InstantiationOptions] = None,
    ) -> None:
        self.options = options or InstantiationOptions()
        if self.options.mode not in ("projected", "naive"):
            raise EncodingError(f"unknown instantiation mode {self.options.mode!r}")
        self.schema = schema
        self.currency = tuple(_CompiledCurrencyConstraint(c) for c in currency_constraints)
        groups: Dict[Tuple[str, ...], List[_CompiledCurrencyConstraint]] = {}
        for compiled in self.currency:
            groups.setdefault(compiled.attributes, []).append(compiled)
        #: The currency constraints grouped by attribute list, in first-use
        #: order: a delta projects its new rows once per group.
        self.currency_groups = tuple((attributes, tuple(group)) for attributes, group in groups.items())
        self.cfds = tuple(_CompiledCFD(cfd) for cfd in cfds)
        #: Number of specifications this program has been stamped onto.
        self.instantiations = 0

    @staticmethod
    def cache_key(
        schema: RelationSchema,
        currency_constraints: Sequence[CurrencyConstraint],
        cfds: Sequence[ConstantCFD],
        options: InstantiationOptions,
    ) -> Tuple:
        """Structural (pickle-stable) identity of a program.

        Constraints are frozen dataclasses, so tuples of them hash by value;
        two structurally equal constraint sets — e.g. the originals in the
        parent process and their unpickled copies in a pool worker — map to
        the same program.
        """
        return (
            schema.name,
            schema.attribute_names,
            tuple(currency_constraints),
            tuple(cfds),
            options.mode,
        )


def compile_program(
    spec: Specification, options: Optional[InstantiationOptions] = None
) -> CompiledConstraintProgram:
    """Compile the constraint program of *spec*'s schema and Σ ∪ Γ."""
    return CompiledConstraintProgram(
        spec.schema, spec.currency_constraints, spec.cfds, options
    )


class ConstraintProgramCache:
    """Structural cache of compiled programs with reuse counters.

    One instance is held per :class:`~repro.resolution.framework.ConflictResolver`
    (and per pool worker), so the first entity of a dataset pays the compile
    and every later entity stamps the cached program.
    """

    def __init__(self) -> None:
        self._programs: Dict[Tuple, CompiledConstraintProgram] = {}
        self.hits = 0
        self.misses = 0

    def program_for(
        self, spec: Specification, options: Optional[InstantiationOptions] = None
    ) -> CompiledConstraintProgram:
        """Return the (cached) compiled program for *spec*'s schema and Σ ∪ Γ."""
        options = options or InstantiationOptions()
        key = CompiledConstraintProgram.cache_key(
            spec.schema, spec.currency_constraints, spec.cfds, options
        )
        program = self._programs.get(key)
        if program is None:
            self.misses += 1
            program = CompiledConstraintProgram(
                spec.schema, spec.currency_constraints, spec.cfds, options
            )
            self._programs[key] = program
        else:
            self.hits += 1
        return program

    def __len__(self) -> int:
        return len(self._programs)

    def statistics(self) -> Dict[str, int]:
        """Compile-reuse counters (surfaced by experiments and benchmarks)."""
        return {
            "programs_compiled": self.misses,
            "program_cache_hits": self.hits,
            "program_instantiations": sum(p.instantiations for p in self._programs.values()),
        }


# -- the stamping pass ---------------------------------------------------------


def instantiate(spec: Specification, options: Optional[InstantiationOptions] = None) -> InstanceConstraintSet:
    """Build Ω(S_e) for *spec* (paper procedure ``Instantiation``): compile, then stamp."""
    return instantiate_compiled(spec, compile_program(spec, options))


def _cfd_instances(
    program: CompiledConstraintProgram, instance: EntityInstance
) -> Iterator[Tuple[Tuple[OrderLiteral, ...], FrozenSet[Triple], Triple, str]]:
    """The constant CFDs' instance constraints on *instance*, in Ω order.

    ``t_p[X] → t_p[B]`` becomes, for every other value ``b`` of ``B``'s
    active domain, "if every other X value is less current than the pattern
    values then ``b ≺^v t_p[B]``".  Yields ``(body, body key, head triple,
    source name)`` per instance, before deduplication; the body key is the
    frozenset of the body's triples.  Active domains are projected once per
    attribute.
    """
    domains: Dict[str, Tuple[Value, ...]] = {}
    domain_keys: Dict[str, Set[Hashable]] = {}

    def domain(attribute: str) -> Tuple[Value, ...]:
        cached = domains.get(attribute)
        if cached is None:
            cached = domains[attribute] = instance.active_domain(attribute)
            domain_keys[attribute] = {canonical_value(value) for value in cached}
        return cached

    for cfd in program.cfds:
        # Current values always come from the active domain, so an LHS
        # constant outside it makes the CFD vacuous for this entity.
        vacuous = False
        for attribute, pattern_value in cfd.lhs_items:
            domain(attribute)
            if canonical_value(pattern_value) not in domain_keys[attribute]:
                vacuous = True
                break
        if vacuous:
            continue
        body: List[OrderLiteral] = []
        for attribute, pattern_value in cfd.lhs_items:
            for other in domain(attribute):
                if values_equal(other, pattern_value):
                    continue
                body.append(OrderLiteral._trusted(attribute, other, pattern_value))
        body_tuple = tuple(body)
        body_key = frozenset((lit.attribute, lit.older, lit.newer) for lit in body_tuple)
        # The paper defines ≺^v over adom ∪ CFD constants, so the RHS constant
        # may lie outside the active domain: the CFD then acts as a *repair*,
        # and when it fires its constant becomes the true value.
        for other in domain(cfd.rhs_attribute):
            if values_equal(other, cfd.rhs_value):
                continue
            yield body_tuple, body_key, (cfd.rhs_attribute, other, cfd.rhs_value), cfd.source_name


def instantiate_compiled(
    spec: Specification, program: CompiledConstraintProgram
) -> InstanceConstraintSet:
    """Build Ω(S_e) by stamping *program* onto *spec*.

    Ω lists the currency-order facts, the currency-constraint instances, the
    CFD instances and the closure of the ground facts, in that order,
    without duplicates under the instance-constraint key (body atoms as a
    set, head atom, head sign).  ``used_values`` is noted as constraints are
    admitted.
    """
    options = program.options
    program.instantiations += 1
    result = InstanceConstraintSet()
    constraints = result.constraints
    # Ground facts (empty body, positive head) are keyed by their head triple;
    # everything else uses the frozenset key of _constraint_key.  The two key
    # spaces are disjoint (empty vs. non-empty body frozensets never compare
    # equal), so together they admit what one _constraint_key set would.
    fact_seen: Set[Triple] = set()
    general_seen: Set[Tuple] = set()
    # used-value bookkeeping, fused into emission (emission order equals list
    # order, so the buckets come out in first-use order).
    used: Dict[str, List[Value]] = {}
    used_keys: Dict[str, Set[Hashable]] = {}

    def note(attribute: str, value: Value) -> None:
        keys = used_keys.get(attribute)
        if keys is None:
            keys = used_keys[attribute] = set()
            used[attribute] = []
        key = canonical_value(value)
        if key not in keys:
            keys.add(key)
            used[attribute].append(value)

    # -- currency-order facts ----------------------------------------------
    instance = spec.instance
    for attribute, order in spec.temporal_instance.orders.items():
        value_of: Dict = {}
        for item in instance:
            value_of[item.tid] = item[attribute]
        for older_tid, newer_tids in order.successor_map().items():
            older_value = value_of[older_tid]
            for newer_tid in newer_tids:
                newer_value = value_of[newer_tid]
                # Normalised values make plain ``==`` identical to values_equal.
                if older_value == newer_value:
                    continue
                key = (attribute, older_value, newer_value)
                if key in fact_seen:
                    continue
                fact_seen.add(key)
                constraints.append(
                    InstanceConstraint(
                        body=(),
                        head=OrderLiteral._trusted(attribute, older_value, newer_value),
                        source_kind="order",
                        source_name=f"{older_tid}≺{newer_tid}",
                    )
                )
                note(attribute, older_value)
                note(attribute, newer_value)

    # -- currency constraints (compiled evaluators over positional rows) ---
    projection_rows: Dict[Tuple[str, ...], List[Tuple[Value, ...]]] = {}
    projected = options.mode == "projected"
    for compiled in program.currency:
        attributes = compiled.attributes
        rows = projection_rows.get(attributes)
        if rows is None:
            # Instance values are normalised, so each positional row *is* its
            # canonical projection key (NULL is already the interned marker).
            if projected:
                seen_rows: Set[Tuple[Value, ...]] = set()
                rows = []
                for item in instance:
                    row = tuple(item[attribute] for attribute in attributes)
                    if row in seen_rows:
                        continue
                    seen_rows.add(row)
                    rows.append(row)
            else:
                rows = [tuple(item[attribute] for attribute in attributes) for item in instance]
            projection_rows[attributes] = rows
        evaluate = compiled.evaluate
        for row1, row2 in itertools.permutations(rows, 2):
            instantiated = evaluate(row1, row2)
            if instantiated is None:
                continue
            body_triples, head_triple = instantiated
            if body_triples:
                key = (frozenset(body_triples), head_triple, False)
                if key in general_seen:
                    continue
                general_seen.add(key)
            else:
                if head_triple in fact_seen:
                    continue
                fact_seen.add(head_triple)
            for attribute, older_value, newer_value in body_triples:
                note(attribute, older_value)
                note(attribute, newer_value)
            attribute, older_value, newer_value = head_triple
            note(attribute, older_value)
            note(attribute, newer_value)
            constraints.append(
                InstanceConstraint(
                    body=tuple(OrderLiteral(*triple) for triple in body_triples),
                    head=OrderLiteral(*head_triple),
                    source_kind="currency",
                    source_name=compiled.source_name,
                )
            )

    # -- constant CFDs -------------------------------------------------------
    for body, body_key, head_triple, source_name in _cfd_instances(program, instance):
        if body:
            key = (body_key, head_triple, False)
            if key in general_seen:
                continue
            general_seen.add(key)
        else:
            if head_triple in fact_seen:
                continue
            fact_seen.add(head_triple)
        for literal in body:
            note(literal.attribute, literal.older)
            note(literal.attribute, literal.newer)
        attribute, older_value, newer_value = head_triple
        note(attribute, older_value)
        note(attribute, newer_value)
        constraints.append(
            InstanceConstraint(
                body=body,
                head=OrderLiteral._trusted(*head_triple),
                source_kind="cfd",
                source_name=source_name,
            )
        )

    # -- ground-fact closure ----------------------------------------------
    def emit_closed(constraint: InstanceConstraint) -> None:
        head = constraint.head
        if not constraint.body and head is not None and not constraint.negated_head:
            key = (head.attribute, head.older, head.newer)
            if key in fact_seen:
                return
            fact_seen.add(key)
            constraints.append(constraint)
            note(head.attribute, head.older)
            note(head.attribute, head.newer)
            return
        key = _constraint_key(constraint)
        if key in general_seen:
            return
        general_seen.add(key)
        constraints.append(constraint)
        for literal in constraint.body:
            note(literal.attribute, literal.older)
            note(literal.attribute, literal.newer)
        if head is not None:
            note(head.attribute, head.older)
            note(head.attribute, head.newer)

    _close_ground_facts(result, emit_closed)
    result.used_values = used
    return result
