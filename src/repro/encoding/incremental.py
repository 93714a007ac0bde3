"""Incremental (delta) encoding of ``S_e ⊕ O_t`` across resolution rounds.

The interactive framework (paper Fig. 4) extends the specification once per
user round and re-runs ``IsValid`` → ``DeduceOrder`` → ``Suggest`` on the
result.  Re-instantiating Ω(S_e ⊕ O_t) and rebuilding Φ from scratch each
round throws away everything the previous round computed.
:class:`IncrementalEncoder` is the one encoder of the package: it keeps one
registry and one :class:`~repro.solvers.session.SolverSession` alive for the
whole resolve loop — the session is the only store of Φ's clauses, and the
only thing ``IsValid``, ``DeduceOrder`` and ``Suggest`` query — and, given a
:class:`TemporalOrderDelta`, emits *only the new* instance constraints and
clauses:

* **currency-order facts** — the diff of the per-attribute tuple orders
  (including the NULL-lowest edges the extended temporal instance adds),
  read as the tail of each tuple's successor list past its old length;
* **currency-constraint instances** — only the tuple/projection pairs that
  involve a projection first contributed by the delta, evaluated by the
  compiled program's positional evaluators against the projections the
  full encode's stamp built (kept, and extended by each delta);
* **ground-fact closure** — maintained per attribute, emitting only the
  closure pairs the new facts introduce: the closure is walked once and
  each pair looked up in the set of pairs already closed (a cycle marks the
  specification inherently invalid, exactly as in the full encode);
* **order axioms** — the two total-order clauses of every value triple whose
  newest value the delta first uses, written straight into Φ as integer
  clauses (they are not part of Ω; see
  :func:`~repro.encoding.cnf_encoder.emit_order_axioms`).

Constant CFDs are the one non-monotone ingredient: their instance constraints
enumerate the active domain, so a new value (e.g. a user answer outside the
active domain, paper Section VI) *changes* the bodies of already-emitted CFD
clauses.  Those clauses therefore carry **guard (selector) literals** — the
classic assumption-based incremental-SAT idiom: a CFD clause is
``¬g ∨ ¬body ∨ head`` and every query assumes the guards of the currently
valid CFD instances.  When a delta grows an active domain, stale CFD clauses
are retired simply by no longer assuming their guards, and replacements are
appended under fresh guards; no clause of Φ is ever removed from the
solver.

Ω is built only through the encoder's compiled constraint program
(:mod:`repro.encoding.compiled`): the full encode stamps it, and the deltas
run its currency evaluators over the value index and its CFD instance
generator.  Ω is kept as records; each record's clause is written as
integers, and a full encode or a delta step goes into the session in one
:meth:`~repro.solvers.session.SolverSession.load_clauses` call.  The encoder
deduplicates Ω by record key
(:func:`~repro.encoding.instance_constraints._record_key`) and emits each
value triple's order axioms once, which makes the incremental Φ logically
equivalent to a full encode of the extended specification.  Resolving from
scratch (``ResolverOptions(incremental=False)``) builds a fresh encoder
every round instead of applying the delta.

A delta walks the delta, not the entity: the new tuples are projected once
per currency group, each tuple's old successor list is read once (for its
length), and :meth:`~repro.core.instance.TemporalInstance.extend` derives
NULL-lowest pairs for the new tuples alone.  What remains linear in the
entity is copying its tuple orders, which keeps every specification of the
loop immutable.
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro import profiling

from repro.core.errors import CyclicOrderError
from repro.core.instance import TemporalOrderDelta
from repro.core.partial_order import PartialOrder
from repro.core.specification import Specification
from repro.core.values import Value
from repro.encoding.cnf_encoder import (
    OrderAxioms,
    SpecificationEncoding,
    _record_clause,
    emit_order_axioms,
)
from repro.encoding.compiled import (
    CompiledConstraintProgram,
    _cfd_instances,
    _project,
    _Rows,
    compile_program,
    stamp,
)
from repro.encoding.instance_constraints import (
    InstanceConstraintSet,
    InstantiationOptions,
    Record,
    _record_key,
)
from repro.encoding.variables import OrderVariableRegistry, canonical_value
from repro.solvers.budget import SolverBudget
from repro.solvers.session import ArenaSession, SolverSession

__all__ = ["IncrementalEncoder"]


class IncrementalEncoder:
    """Maintains Ω, Φ and a solver session for one entity's resolve loop.

    Parameters
    ----------
    spec:
        The initial specification ``S_e`` (fully encoded once, at
        construction).
    options:
        Instantiation options, used to compile a program when *program* is
        not given.
    session:
        The :class:`SolverSession` to load the clauses into, the only place
        Φ is kept; by default a fresh ``ArenaSession(budget)``.
    program:
        The compiled constraint program
        (:class:`~repro.encoding.compiled.CompiledConstraintProgram`) for the
        specification's schema and Σ ∪ Γ, typically from a cache shared
        across entities; one is compiled from *options* when none is given.
        The program's options take precedence over *options*.
    budget:
        The :class:`~repro.solvers.budget.SolverBudget` of the default
        session; ignored when *session* is given.
    """

    def __init__(
        self,
        spec: Specification,
        options: Optional[InstantiationOptions] = None,
        session: Optional[SolverSession] = None,
        program: CompiledConstraintProgram | None = None,
        budget: Optional[SolverBudget] = None,
    ) -> None:
        self._program = program if program is not None else compile_program(spec, options)
        self._options = self._program.options
        self._session = session if session is not None else ArenaSession(budget)
        self._registry = OrderVariableRegistry()
        self._spec = spec
        # Delta-tracking state.  Ω's unguarded records are keyed in _keys, its
        # CFD records in _guards (key → guard literal) and _guard_records: a
        # currency record may share its key with a guarded CFD record.
        self._keys: Set[Hashable] = set()
        self._guards: Dict[Hashable, int] = {}
        self._guard_records: Dict[Hashable, Record] = {}
        self._retired_guards = 0
        self._projections: Dict[Tuple[str, ...], _Rows] = {}
        self._fact_orders: Dict[str, PartialOrder] = {}
        self._fact_closures: Dict[str, Set[Tuple[Hashable, Hashable]]] = {}
        self._used_values: Dict[str, List[Value]] = {}
        self._used_keys: Dict[str, Set[Hashable]] = {}
        self._adom_keys: Dict[str, Set[Hashable]] = {}
        # Statistics.
        self._delta_encodings = 0
        self._initial_clauses = 0
        self._incremental_clauses = 0
        self._last_delta_clauses = 0
        self._last_delta_constraints = 0

        self._encoding = SpecificationEncoding(
            specification=spec,
            omega=InstanceConstraintSet(),
            registry=self._registry,
            options=self._options,
        )
        if profiling.enabled():
            encode_start = perf_counter()
            self._full_encode()
            profiling.add("encode", perf_counter() - encode_start)
        else:
            self._full_encode()
        self._encoding.session_clauses = self._initial_clauses

    # -- public accessors ------------------------------------------------------

    @property
    def specification(self) -> Specification:
        """The currently encoded specification (``S_e`` plus applied deltas)."""
        return self._spec

    @property
    def encoding(self) -> SpecificationEncoding:
        """The live :class:`SpecificationEncoding` (mutated in place by deltas)."""
        return self._encoding

    @property
    def session(self) -> SolverSession:
        """The solver session holding Φ."""
        return self._session

    @property
    def assumptions(self) -> Tuple[int, ...]:
        """Guard literals of the currently valid CFD clauses.

        Every session call over the incremental encoding (each ``solve`` and
        each ``propagate``) must assume these; retired guards are simply absent.
        """
        return tuple(sorted(self._guards.values()))

    def statistics(self) -> Dict[str, int]:
        """Encoder-level reuse counters, merged with the session's."""
        stats = {
            "incremental": 1,
            "delta_encodings": self._delta_encodings,
            "initial_clauses": self._initial_clauses,
            "incremental_clauses": self._incremental_clauses,
            "last_delta_clauses": self._last_delta_clauses,
            "last_delta_constraints": self._last_delta_constraints,
            "active_guards": len(self._guards),
            "retired_guards": self._retired_guards,
        }
        for key, value in self._session.statistics().items():
            stats[f"session_{key}"] = value
        return stats

    # -- clause plumbing -------------------------------------------------------

    @property
    def _omega(self) -> InstanceConstraintSet:
        return self._encoding.omega

    def _load(self, clauses: Sequence[Sequence[int]], initial: bool) -> None:
        """Load one encode step's clauses into the session, in one call."""
        self._session.load_clauses(clauses, self._registry.num_variables)
        if initial:
            self._initial_clauses += len(clauses)
        else:
            self._incremental_clauses += len(clauses)
            self._last_delta_clauses += len(clauses)

    def _guarded_clause(self, record: Record, key: Hashable) -> List[int]:
        """A CFD record's clause under a fresh guard literal, registered before its atoms."""
        guard = self._registry.auxiliary_variable()
        self._guards[key] = guard
        self._guard_records[key] = record
        return [-guard] + _record_clause(self._registry, record[2], record[3])

    def _admit(self, record: Record, key: Hashable, out: List[Record]) -> None:
        if key not in self._keys:
            self._keys.add(key)
            out.append(record)

    # -- initial (full) encoding -----------------------------------------------

    def _full_encode(self) -> None:
        spec = self._spec
        omega, keys, projections = stamp(spec, self._program)
        self._encoding.omega = omega
        self._used_values = omega.used_values

        # Ω comes deduplicated, with the key each record was admitted under.
        registry = self._registry
        clauses: List[Sequence[int]] = []
        for record, key in zip(omega.records, keys):
            if record[0] == "cfd":
                clauses.append(self._guarded_clause(record, key))
            else:
                self._keys.add(key)
                clauses.append(_record_clause(registry, record[2], record[3]))
        emit_order_axioms(registry, clauses.append, self._used_values)
        self._load(clauses, initial=True)
        if omega.inherently_invalid:
            return  # the encoding is permanently unsatisfiable; no delta state needed
        self._seed_delta_state(projections)

    def _seed_delta_state(self, projections: Dict[Tuple[str, ...], _Rows]) -> None:
        """Keep what apply_delta() diffs against: used values, ground facts, domains, projections.

        The ground-fact order of each attribute holds Ω's unguarded facts
        (closure facts included), and its closure set every pair it orders.
        Stamp closed the facts together with the guarded CFD facts, so a
        pair the order reaches but does not hold is one such CFD fact: those
        are the only pairs looked up to seed the closure.
        """
        spec = self._spec
        for attribute, values in self._used_values.items():
            self._used_keys[attribute] = {canonical_value(value) for value in values}
        guarded_facts: List[Tuple[str, Hashable, Hashable]] = []
        for kind, _, body, head in self._omega.records:
            if body:
                continue
            if kind == "cfd":
                guarded_facts.append(head)
                continue
            order = self._fact_orders.setdefault(head[0], PartialOrder())
            order.try_add(head[1], head[2])
            self._fact_closures.setdefault(head[0], set()).add((head[1], head[2]))
        for attribute, older, newer in guarded_facts:
            order = self._fact_orders.get(attribute)
            if order is not None and order.precedes(older, newer):
                self._fact_closures[attribute].add((older, newer))
        for attribute in spec.schema.attribute_names:
            self._adom_keys[attribute] = {
                canonical_value(value) for value in spec.instance.active_domain(attribute)
            }
        self._projections = projections

    # -- delta application -----------------------------------------------------

    def apply_delta(self, delta: TemporalOrderDelta) -> Dict[str, int]:
        """Extend the encoded specification with *delta*, emitting only new clauses.

        Returns a small statistics dictionary (constraints and clauses added,
        guards retired) for the round report.
        """
        if profiling.enabled():
            encode_start = perf_counter()
            try:
                return self._apply_delta(delta)
            finally:
                profiling.add("encode", perf_counter() - encode_start)
        return self._apply_delta(delta)

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

        fresh: List[Record] = []
        self._delta_order_facts(old_spec, new_spec, fresh)
        self._delta_currency_constraints(new_spec, delta, fresh)
        # The clauses of this step, in stream order: the refreshed CFD
        # clauses, then the new unguarded records', then the triangles.
        clauses: List[Sequence[int]] = []
        new_cfd_records = self._delta_cfds(new_spec, delta, clauses)
        if not self._delta_fact_closure(fresh, clauses):
            # A ground-fact cycle makes the specification inherently invalid.
            # Only the guarded CFD clauses and the conflict clause go in; the
            # collected fresh records never enter Ω or Φ.
            self._last_delta_constraints = len(new_cfd_records) + 1
            self._load(clauses, initial=False)
            return self._delta_report()
        registry = self._registry
        for _, _, body, head in fresh:
            clauses.append(_record_clause(registry, body, head))
        self._omega.records.extend(fresh)
        axioms = self._delta_order_axioms(fresh + new_cfd_records, clauses)
        self._last_delta_constraints = len(fresh) + len(new_cfd_records) + axioms
        self._load(clauses, initial=False)
        self._omega.used_values = self._used_values
        return self._delta_report()

    def _delta_report(self) -> Dict[str, int]:
        # Every exit of a delta passes here: keep the encoding's count current.
        self._encoding.session_clauses = self._initial_clauses + self._incremental_clauses
        return {
            "constraints_added": self._last_delta_constraints,
            "clauses_added": self._last_delta_clauses,
            "active_guards": len(self._guards),
            "retired_guards": self._retired_guards,
        }

    # -- delta: currency-order facts -------------------------------------------

    def _delta_order_facts(
        self,
        old_spec: Specification,
        new_spec: Specification,
        out: List[Record],
    ) -> None:
        """Admit a fact for every tuple-order edge *new_spec* adds to *old_spec*.

        The extended orders are copies with edges appended (edges are only
        ever added, and a copy keeps each successor list in insertion order),
        so a tuple's new successors are the tail of its list past the length
        of its old one: one old entry is read per tuple, and no old edge.
        """
        instance, keys = new_spec.instance, self._keys
        for attribute in new_spec.schema.attribute_names:
            old_map = old_spec.temporal_instance.order_for(attribute).successor_map()
            new_map = new_spec.temporal_instance.order_for(attribute).successor_map()
            for older_tid, newer_tids in new_map.items():
                known = len(old_map.get(older_tid, ()))
                if len(newer_tids) == known:
                    continue
                older_value = instance[older_tid][attribute]
                for newer_tid in islice(newer_tids, known, None):
                    newer_value = instance[newer_tid][attribute]
                    if older_value == newer_value:
                        continue
                    head = (attribute, older_value, newer_value)
                    key = _record_key((), head)
                    if key not in keys:  # most edges repeat a known fact: name only the new ones
                        keys.add(key)
                        out.append(("order", f"{older_tid}≺{newer_tid}", (), head))

    # -- delta: currency constraints ---------------------------------------------

    def _delta_currency_constraints(
        self,
        new_spec: Specification,
        delta: TemporalOrderDelta,
        out: List[Record],
    ) -> None:
        if not delta.new_tuples:
            return
        projected = self._options.mode == "projected"
        for attributes, group in self._program.currency_groups:
            # The full encode's projection, extended by every earlier delta.
            old = self._projections[attributes]
            fresh_rows = _project(delta.new_tuples, attributes, projected, old.seen)
            if not fresh_rows:
                continue
            for compiled in group:
                evaluate, source_name = compiled.evaluate, compiled.source_name
                for row1, row2 in compiled.delta_pairs(old, fresh_rows):
                    instantiated = evaluate(row1, row2)
                    if instantiated is not None:
                        body, head = instantiated
                        self._admit(("currency", source_name, body, head), _record_key(body, head), out)
            old.extend(fresh_rows)

    # -- delta: constant CFDs ------------------------------------------------------

    def _delta_cfds(
        self, new_spec: Specification, delta: TemporalOrderDelta, clauses: List[Sequence[int]]
    ) -> List[Record]:
        """Refresh the guarded CFD clauses after an active-domain change.

        Appends the new guarded clauses to *clauses* and returns the newly
        added CFD records (for used-value accounting).
        """
        program = self._program
        if not program.cfds or not delta.new_tuples:
            return []
        changed: Set[str] = set()
        for attribute in new_spec.schema.attribute_names:
            keys = self._adom_keys.setdefault(attribute, set())
            for item in delta.new_tuples:
                key = canonical_value(item[attribute])
                if key not in keys:
                    keys.add(key)
                    changed.add(attribute)
        if all(changed.isdisjoint(cfd.attributes) for cfd in program.cfds):
            return []

        # The CFD instances of the current active domains, by key.
        fresh: Dict[Hashable, Record] = {}
        for body, body_key, head, source_name in _cfd_instances(program, new_spec.instance):
            fresh.setdefault(_record_key(body_key, head), ("cfd", source_name, body, head))
        # Retire guards of CFD instances no longer produced by the current
        # active domains (their bodies grew): stop assuming their guards, and
        # drop exactly their CFD records from Ω.
        stale = [key for key in self._guards if key not in fresh]
        if stale:
            for key in stale:
                self._guards.pop(key)
            self._retired_guards += len(stale)
            stale_records = {id(self._guard_records.pop(key)) for key in stale}
            self._omega.records = [
                record for record in self._omega.records if id(record) not in stale_records
            ]
        added: List[Record] = []
        for key, record in fresh.items():
            if key in self._guards:
                continue
            clauses.append(self._guarded_clause(record, key))
            self._omega.records.append(record)
            added.append(record)
        return added

    # -- delta: ground-fact closure -------------------------------------------------

    def _delta_fact_closure(self, fresh: List[Record], clauses: List[Sequence[int]]) -> bool:
        """Close new ground facts transitively; ``False`` on a fact cycle.

        On a cycle the conflict record joins Ω and its empty clause joins
        *clauses*.
        """
        new_edges: Dict[str, List[Tuple[Hashable, Hashable]]] = {}
        for _, _, body, head in fresh:
            if not body:
                new_edges.setdefault(head[0], []).append((head[1], head[2]))
        closure_facts: List[Record] = []
        for attribute, edges in new_edges.items():
            order = self._fact_orders.setdefault(attribute, PartialOrder())
            closed = self._fact_closures.setdefault(attribute, set())
            try:
                for older, newer in edges:
                    order.add(older, newer)
            except CyclicOrderError:
                self._omega.inherently_invalid = True
                self._omega.invalid_reason = (
                    f"the ground currency facts on attribute {attribute!r} form a cycle"
                )
                self._keys.add(_record_key((), None))
                self._omega.records.append(("conflict", attribute, (), None))
                clauses.append([])
                return False
            direct = set(edges)
            for pair in order.transitive_closure_pairs():
                if pair in closed:
                    continue
                closed.add(pair)
                if pair in direct:
                    continue
                head = (attribute, pair[0], pair[1])
                self._admit(("closure", attribute, (), head), _record_key((), head), closure_facts)
        fresh.extend(closure_facts)
        return True

    # -- delta: used values and order axioms -----------------------------------------

    def _note_used(self, attribute: str, value: Value) -> bool:
        """Record a used value; returns ``True`` when the value is new for *attribute*."""
        keys = self._used_keys.setdefault(attribute, set())
        key = canonical_value(value)
        if key in keys:
            return False
        keys.add(key)
        self._used_values.setdefault(attribute, []).append(value)
        return True

    def _delta_order_axioms(self, new_records: List[Record], clauses: List[Sequence[int]]) -> int:
        """Note the used values of *new_records*, append the axioms they add to *clauses*; return how many.

        A newly used value joins the tail of its attribute's used values, so
        the triples it is the newest value of are exactly those
        :meth:`OrderAxioms.triangles` emits from the first new position: no
        earlier delta emitted them, and no Ω clause equals one (see
        :func:`emit_order_axioms`).
        """
        new_counts: Dict[str, int] = {}  # touched attribute → how many values it newly uses
        for _, _, body, head in new_records:
            for attribute, older, newer in body + (head,):
                new_counts[attribute] = (
                    new_counts.get(attribute, 0)
                    + self._note_used(attribute, older)
                    + self._note_used(attribute, newer)
                )

        pushed = 0
        for attribute in sorted(new_counts):
            if not new_counts[attribute]:
                continue
            values = self._used_values[attribute]
            axioms = OrderAxioms(self._registry, attribute, values, clauses.append)
            pushed += axioms.triangles(len(values) - new_counts[attribute])
        return pushed
