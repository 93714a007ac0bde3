"""The ``Instantiation`` procedure: Σ ∪ Γ compiled once, stamped per entity.

Σ and Γ are shared by every entity of a dataset, so their *structure* is
analysed once per (schema, Σ, Γ, options) into a
:class:`CompiledConstraintProgram`, and building Ω(S_e) for an entity is a
template-stamping pass over its tuples:

* every currency constraint is compiled into a flat evaluator over
  *positional* rows (tuples aligned with the constraint's sorted attribute
  list): pre-resolved attribute→index maps, pre-bound comparison operators,
  hoisted cross-attribute NULL checks, and order-predicate steps that emit
  plain value triples;
* each ``t1[A] = c`` and ``t2[A] = c`` check of a currency constraint is also
  recorded as ``(position, constant)``, and the stamp looks rows up through a
  per-entity value index (the alpha memory of Rete, Forgy 1982): a
  constraint visits only the row pairs whose equality checks can hold.  Most
  of Σ are value transitions ``t1[A] = c1 ∧ t2[A] = c2 → t1 ≺_A t2``, which
  fire on at most one pair per entity;
* every constant CFD is compiled into its sorted LHS pattern items and
  pre-computed source label;
* Ω comes out as records ``(kind, source name, body triples, head triple)``
  (:data:`~repro.encoding.instance_constraints.Record`), each with the
  deduplication key it was admitted under, and active-domain projections
  are computed once per attribute per entity.

The program is the one thing that builds Ω: :func:`instantiate` (compile,
then stamp), :func:`instantiate_compiled`, and both the full encode and the
deltas of the :class:`~repro.encoding.incremental.IncrementalEncoder` all
run on it.

:class:`ConstraintProgramCache` keys programs *structurally* (constraints are
frozen dataclasses, hence hashable by value), so a cache hit survives
pickling — this is what lets the process-pool workers of the
:class:`~repro.engine.ResolutionEngine` compile each dataset's program once
per worker and stamp it for every entity of every chunk they receive.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.cfd import ConstantCFD
from repro.core.constraints import (
    ConstantComparisonPredicate,
    CurrencyConstraint,
    OrderPredicate,
    TupleComparisonPredicate,
)
from repro.core.errors import CyclicOrderError, EncodingError
from repro.core.instance import EntityInstance
from repro.core.partial_order import PartialOrder
from repro.core.schema import RelationSchema
from repro.core.specification import Specification
from repro.core.values import Value, compare_values, is_null, values_equal
from repro.encoding.instance_constraints import (
    InstanceConstraintSet,
    InstantiationOptions,
    Record,
    Triple,
    _record_key,
)
from repro.encoding.variables import canonical_value

__all__ = [
    "CompiledConstraintProgram",
    "ConstraintProgramCache",
    "compile_program",
    "instantiate",
    "instantiate_compiled",
]

#: A tuple projected onto a constraint's sorted attribute list.
Row = Tuple[Value, ...]
#: The ``t_i[A] = c`` checks of one side of a constraint, as ``(position, constant)``.
Equalities = Tuple[Tuple[int, Value], ...]


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
        "first_equalities",
        "second_equalities",
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
        equalities: Dict[int, List[Tuple[int, Value]]] = {1: [], 2: []}
        order_steps: List[Tuple[str, int]] = []
        for predicate in constraint.body:
            body_attributes |= predicate.referenced_attributes()
            if isinstance(predicate, OrderPredicate):
                order_steps.append((predicate.attribute, index[predicate.attribute]))
            elif isinstance(predicate, TupleComparisonPredicate):
                checks.append(_compile_tuple_check(index[predicate.attribute], predicate.op))
            elif isinstance(predicate, ConstantComparisonPredicate):
                position = index[predicate.attribute]
                checks.append(
                    _compile_constant_check(predicate.tuple_index, position, predicate.op, predicate.constant)
                )
                # Values are normalised, so for a constant equal to itself a
                # dict lookup is exactly values_equal (1, 1.0 and True hash
                # and compare equal; NULL is one key).  A NaN constant equals
                # nothing and stays out of the index.
                if predicate.op == "=" and predicate.constant == predicate.constant:
                    equalities[predicate.tuple_index].append((position, predicate.constant))
            else:  # pragma: no cover - defensive
                raise EncodingError(f"unsupported predicate {predicate!r}")
        self.checks = tuple(checks)
        #: The ``t1[A] = c`` and ``t2[A] = c`` checks, for the value index.
        self.first_equalities: Equalities = tuple(equalities[1])
        self.second_equalities: Equalities = tuple(equalities[2])
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

    def evaluate(self, row1: Row, row2: Row) -> Optional[Tuple[Tuple[Triple, ...], Triple]]:
        """Instantiate on one ordered pair; ``None`` when vacuous.

        The instance is vacuous when a comparison predicate is false, a body
        order predicate relates equal values, or the conclusion relates equal
        values.  It is also vacuous when it would rank a missing value above
        a present one: a NULL carries no currency information and sits at the
        bottom of every currency order (a user-input tuple that answers only
        some attributes is NULL on the others).

        Returns the body triples and the head triple.  Values are normalised,
        so plain ``==`` is :func:`~repro.core.values.values_equal`.
        """
        for position in self.null_check_indices:
            if is_null(row1[position]) or is_null(row2[position]):
                return None
        for check in self.checks:
            if not check(row1, row2):
                return None
        body: Tuple[Triple, ...] = ()
        if self.order_steps:
            steps: List[Triple] = []
            for attribute, position in self.order_steps:
                older = row1[position]
                newer = row2[position]
                if older == newer:
                    return None
                steps.append((attribute, older, newer))
            body = tuple(steps)
        older = row1[self.conclusion_index]
        newer = row2[self.conclusion_index]
        if older == newer or is_null(newer):
            return None
        return body, (self.conclusion_attribute, older, newer)

    def delta_pairs(self, old: "_Rows", fresh: Sequence[Row]) -> Iterator[Tuple[Row, Row]]:
        """The row pairs a delta of *fresh* rows adds to *old*, in the delta's visiting order.

        That order is: for each fresh row and each old row, (fresh, old) then
        (old, fresh); then the fresh rows' own ordered pairs.  A row enters a
        pair on the t1 side only if it meets the t1 equalities, and on the t2
        side only if it meets the t2 equalities; every other pair is one
        :meth:`evaluate` would find vacuous.
        """
        firsts = old.side(self.first_equalities)
        seconds = old.side(self.second_equalities)
        as_first = [_meets(row, self.first_equalities) for row in fresh]
        as_second = [_meets(row, self.second_equalities) for row in fresh]
        for new_row, first, second in zip(fresh, as_first, as_second):
            if first and second:
                if firsts is seconds:  # no equality on either side
                    for old_row in old.rows:
                        yield new_row, old_row
                        yield old_row, new_row
                    continue
                merged = heapq.merge(
                    ((position, 0, row) for position, row in seconds),
                    ((position, 1, row) for position, row in firsts),
                )
                for _, later, old_row in merged:
                    yield (old_row, new_row) if later else (new_row, old_row)
            elif first:
                for _, old_row in seconds:
                    yield new_row, old_row
            elif second:
                for _, old_row in firsts:
                    yield old_row, new_row
        for i, row1 in enumerate(fresh):
            if as_first[i]:
                for j, row2 in enumerate(fresh):
                    if j != i and as_second[j]:
                        yield row1, row2


def _meets(row: Row, equalities: Equalities) -> bool:
    for position, constant in equalities:
        if not row[position] == constant:
            return False
    return True


class _Rows:
    """One projection's positional rows, with a value index per position.

    The index of a position maps each value to the ``(row index, row)``
    entries holding it, in row order; it is built on first use and kept
    current by :meth:`extend`.  ``seen`` is the set :func:`_project` filled
    while projecting the rows; projecting later tuples against it drops the
    rows the projection already holds.
    """

    __slots__ = ("rows", "entries", "seen", "_index")

    def __init__(self, rows: Iterable[Row] = (), seen: Optional[Set[Row]] = None) -> None:
        self.rows: List[Row] = []
        self.entries: List[Tuple[int, Row]] = []
        self.seen: Set[Row] = set() if seen is None else seen
        self._index: Dict[int, Dict[Value, List[Tuple[int, Row]]]] = {}
        self.extend(rows)

    def extend(self, rows: Iterable[Row]) -> None:
        """Append *rows*, indexing them under every position indexed so far."""
        for row in rows:
            entry = (len(self.rows), row)
            self.rows.append(row)
            self.entries.append(entry)
            for position, postings in self._index.items():
                postings.setdefault(row[position], []).append(entry)

    def side(self, equalities: Equalities) -> List[Tuple[int, Row]]:
        """The entries that can meet every check of *equalities*, in row order.

        This is the shortest posting list among the checks (all entries when
        there is none); the evaluator still runs every check.
        """
        best = self.entries
        for position, constant in equalities:
            postings = self._index.get(position)
            if postings is None:
                postings = self._index[position] = {}
                for entry in self.entries:
                    postings.setdefault(entry[1][position], []).append(entry)
            candidates = postings.get(constant)
            if candidates is None:
                return []
            if len(candidates) < len(best):
                best = candidates
        return best


def _project(
    items: Iterable, attributes: Tuple[str, ...], projected: bool, seen: Set[Row]
) -> List[Row]:
    """The positional rows of *items* on *attributes*; *projected* drops rows already in *seen*.

    Instance values are normalised, so each positional row *is* its
    canonical projection key (NULL is already the interned marker).  Every
    returned row is added to *seen*.
    """
    rows: List[Row] = []
    for item in items:
        row = tuple(item[attribute] for attribute in attributes)
        if projected and row in seen:
            continue
        seen.add(row)
        rows.append(row)
    return rows


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


def instantiate_compiled(
    spec: Specification, program: CompiledConstraintProgram
) -> InstanceConstraintSet:
    """Build Ω(S_e) by stamping *program* onto *spec* (see :func:`stamp`)."""
    return stamp(spec, program)[0]


def _cfd_instances(
    program: CompiledConstraintProgram, instance: EntityInstance
) -> Iterator[Tuple[Tuple[Triple, ...], frozenset, Triple, str]]:
    """The constant CFDs' instance constraints on *instance*, in Ω order.

    ``t_p[X] → t_p[B]`` becomes, for every other value ``b`` of ``B``'s
    active domain, "if every other X value is less current than the pattern
    values then ``b ≺^v t_p[B]``".  Yields ``(body triples, body key, head
    triple, source name)`` per instance, before deduplication; the body key
    is the frozenset of the body triples.  Active domains are projected once
    per attribute.
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
        body: List[Triple] = []
        for attribute, pattern_value in cfd.lhs_items:
            for other in domain(attribute):
                if values_equal(other, pattern_value):
                    continue
                body.append((attribute, other, pattern_value))
        body_tuple = tuple(body)
        body_key = frozenset(body_tuple)
        # The paper defines ≺^v over adom ∪ CFD constants, so the RHS constant
        # may lie outside the active domain: the CFD then acts as a *repair*,
        # and when it fires its constant becomes the true value.
        for other in domain(cfd.rhs_attribute):
            if values_equal(other, cfd.rhs_value):
                continue
            yield body_tuple, body_key, (cfd.rhs_attribute, other, cfd.rhs_value), cfd.source_name


def stamp(
    spec: Specification, program: CompiledConstraintProgram
) -> Tuple[InstanceConstraintSet, List[Hashable], Dict[Tuple[str, ...], _Rows]]:
    """Build Ω(S_e) by stamping *program* onto *spec*; return it with each record's key and the projections.

    Ω lists the currency-order facts, the currency-constraint instances, the
    CFD instances and the closure of the ground facts, in that order,
    without duplicates under the record key (a ground fact's head triple,
    otherwise the body atoms as a set and the head; see
    :func:`~repro.encoding.instance_constraints._record_key`).  The second
    list holds the key each record was admitted under, in record order.
    ``used_values`` is noted as records are admitted.  The third value maps
    each currency group's attribute list (see
    :attr:`CompiledConstraintProgram.currency_groups`) to the rows the stamp
    projected and indexed, which a delta encode extends instead of
    projecting the entity again.
    """
    program.instantiations += 1
    records: List[Record] = []
    keys: List[Hashable] = []
    seen: Set[Hashable] = set()
    # used-value bookkeeping, fused into emission (emission order equals list
    # order, so the buckets come out in first-use order).
    used: Dict[str, List[Value]] = {}
    used_keys: Dict[str, Set[Hashable]] = {}

    def note(attribute: str, value: Value) -> None:
        bucket = used_keys.get(attribute)
        if bucket is None:
            bucket = used_keys[attribute] = set()
            used[attribute] = []
        if value not in bucket:
            bucket.add(value)
            used[attribute].append(value)

    def admit(kind: str, source_name: str, body: Tuple[Triple, ...], head: Triple, key: Hashable) -> None:
        seen.add(key)
        records.append((kind, source_name, body, head))
        keys.append(key)
        for attribute, older, newer in body:
            note(attribute, older)
            note(attribute, newer)
        note(head[0], head[1])
        note(head[0], head[2])

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
                head = (attribute, older_value, newer_value)
                key = _record_key((), head)
                if key not in seen:
                    admit("order", f"{older_tid}≺{newer_tid}", (), head, key)

    # -- currency constraints (value index, then the compiled evaluators) --
    projections: Dict[Tuple[str, ...], _Rows] = {}
    projected = program.options.mode == "projected"
    for compiled in program.currency:
        rows = projections.get(compiled.attributes)
        if rows is None:
            projected_rows: Set[Row] = set()
            rows = projections[compiled.attributes] = _Rows(
                _project(instance, compiled.attributes, projected, projected_rows), projected_rows
            )
        seconds = rows.side(compiled.second_equalities)
        if not seconds:
            continue
        evaluate, source_name = compiled.evaluate, compiled.source_name
        # Permutation order, restricted to the pairs the index admits.
        for i, row1 in rows.side(compiled.first_equalities):
            for j, row2 in seconds:
                if i == j:
                    continue
                instantiated = evaluate(row1, row2)
                if instantiated is None:
                    continue
                body, head = instantiated
                key = _record_key(body, head)
                if key not in seen:
                    admit("currency", source_name, body, head, key)

    # -- constant CFDs -------------------------------------------------------
    for body, body_key, head, source_name in _cfd_instances(program, instance):
        key = _record_key(body_key, head)
        if key not in seen:
            admit("cfd", source_name, body, head, key)

    # -- ground-fact closure ----------------------------------------------
    # Facts (records with an empty body) form a ground order per attribute.
    # Closing them here detects cycles among facts eagerly: a cycle makes the
    # whole specification invalid, recorded as an empty implication
    # ``true → false``.  The closure facts come in
    # :meth:`PartialOrder.transitive_closure_pairs` order, which follows the
    # facts' order; a direct fact's head is already a key of Ω.
    omega = InstanceConstraintSet(records=records, used_values=used)
    facts: Dict[str, List[Tuple[Value, Value]]] = {}
    for _, _, body, head in records:
        if not body:
            facts.setdefault(head[0], []).append((head[1], head[2]))
    for attribute, edges in facts.items():
        order = PartialOrder()
        try:
            for older, newer in edges:
                order.add(older, newer)
        except CyclicOrderError:
            omega.inherently_invalid = True
            omega.invalid_reason = f"the ground currency facts on attribute {attribute!r} form a cycle"
            records.append(("conflict", attribute, (), None))
            keys.append(_record_key((), None))
            break
        for older, newer in order.transitive_closure_pairs():
            head = (attribute, older, newer)
            key = _record_key((), head)
            if key not in seen:
                admit("closure", attribute, (), head, key)
    return omega, keys, projections
