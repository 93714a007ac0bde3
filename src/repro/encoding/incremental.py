"""Incremental (delta) encoding of ``S_e ⊕ O_t`` across resolution rounds.

The interactive framework (paper Fig. 4) extends the specification once per
user round and re-runs ``IsValid`` → ``DeduceOrder`` → ``Suggest`` on the
result.  Re-instantiating Ω(S_e ⊕ O_t) and rebuilding Φ from scratch each
round throws away everything the previous round computed.
:class:`IncrementalEncoder` keeps one
registry and one :class:`~repro.solvers.session.SolverSession` alive for the
whole resolve loop — the session is the only store of Φ's clauses — and,
given a :class:`TemporalOrderDelta`, emits *only the new* instance
constraints and clauses:

* **currency-order facts** — the diff of the per-attribute tuple orders
  (including the NULL-lowest edges the extended temporal instance adds);
* **currency-constraint instances** — only the tuple/projection pairs that
  involve a projection first contributed by the delta, evaluated by the
  compiled program's positional evaluators;
* **ground-fact closure** — maintained per attribute, emitting only the
  closure pairs the new facts introduce (a cycle marks the specification
  inherently invalid, exactly as in the from-scratch path);
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
run its currency evaluators and its CFD instance generator.  The encoder
deduplicates Ω by the instance-constraint key
(:func:`~repro.encoding.instance_constraints._constraint_key`) and emits each
value triple's order axioms once, which makes the incremental Φ logically
equivalent to a from-scratch encoding of the extended specification.
"""

from __future__ import annotations

import itertools
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
    _constraint_to_clause,
    emit_order_axioms,
)
from repro.encoding.compiled import (
    CompiledConstraintProgram,
    Triple,
    _cfd_instances,
    compile_program,
    instantiate_compiled,
)
from repro.encoding.instance_constraints import (
    InstanceConstraint,
    InstanceConstraintSet,
    InstantiationOptions,
    _constraint_key,
)
from repro.encoding.variables import OrderLiteral, OrderVariableRegistry, canonical_value
from repro.solvers.budget import SolverBudget
from repro.solvers.session import SolverSession, create_session

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
    backend:
        Solver-session backend name (see
        :func:`repro.solvers.session.create_session`); ignored when *session*
        is given.
    session:
        An existing :class:`SolverSession` to load the clauses into.  It is
        the only place Φ is kept: the encoding's ``cnf`` is ``None``.
    program:
        The compiled constraint program
        (:class:`~repro.encoding.compiled.CompiledConstraintProgram`) for the
        specification's schema and Σ ∪ Γ, typically from a cache shared
        across entities; one is compiled from *options* when none is given.
        The program's options take precedence over *options*.
    """

    def __init__(
        self,
        spec: Specification,
        options: Optional[InstantiationOptions] = None,
        backend: str = "arena",
        session: Optional[SolverSession] = None,
        program: CompiledConstraintProgram | None = None,
        budget: "SolverBudget | None" = None,
    ) -> None:
        self._program = program if program is not None else compile_program(spec, options)
        self._options = self._program.options
        self._session = session if session is not None else create_session(backend, budget=budget)
        self._registry = OrderVariableRegistry()
        self._spec = spec
        # Delta-tracking state.
        self._keys: Set[Tuple] = set()
        self._guards: Dict[Tuple, int] = {}
        self._guard_constraints: Dict[Tuple, InstanceConstraint] = {}
        self._retired_guards = 0
        self._projection_rows: Dict[Tuple[str, ...], List[Tuple[Value, ...]]] = {}
        self._projection_seen: Dict[Tuple[str, ...], Set[Tuple[Value, ...]]] = {}
        self._fact_orders: Dict[str, PartialOrder] = {}
        self._used_values: Dict[str, List[Value]] = {}
        self._used_keys: Dict[str, Set[Hashable]] = {}
        self._adom_keys: Dict[str, Set[Hashable]] = {}
        # Statistics.
        self._delta_encodings = 0
        self._initial_clauses = 0
        self._incremental_clauses = 0
        self._last_delta_clauses = 0
        self._last_delta_constraints = 0

        self._omega = InstanceConstraintSet()
        self._encoding = SpecificationEncoding(
            specification=spec,
            omega=self._omega,
            registry=self._registry,
            cnf=None,
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

    def _push_clause(self, literals: Sequence[int], initial: bool) -> None:
        self._session.add_clause(literals)
        if initial:
            self._initial_clauses += 1
        else:
            self._incremental_clauses += 1
            self._last_delta_clauses += 1

    def _push_constraint(self, constraint: InstanceConstraint, initial: bool) -> None:
        """Append an unguarded constraint to Ω and its clause to Φ/session."""
        self._omega.constraints.append(constraint)
        self._push_clause(_constraint_to_clause(constraint, self._registry), initial)

    def _push_guarded(self, constraint: InstanceConstraint, key: Tuple, initial: bool) -> None:
        """Append a CFD constraint under a fresh guard literal."""
        guard = self._registry.auxiliary_variable(label=("guard", constraint.source_name))
        self._guards[key] = guard
        self._guard_constraints[key] = constraint
        self._omega.constraints.append(constraint)
        clause = [-guard] + _constraint_to_clause(constraint, self._registry)
        self._push_clause(clause, initial)

    def _admit(self, constraint: InstanceConstraint, out: List[InstanceConstraint]) -> bool:
        key = _constraint_key(constraint)
        if key in self._keys:
            return False
        self._keys.add(key)
        out.append(constraint)
        return True

    # -- initial (full) encoding -----------------------------------------------

    def _full_encode(self) -> None:
        spec = self._spec
        omega = instantiate_compiled(spec, self._program)
        self._omega.inherently_invalid = omega.inherently_invalid
        self._omega.invalid_reason = omega.invalid_reason
        self._omega.used_values = omega.used_values
        self._used_values = omega.used_values

        # Ω comes deduplicated, so every key is new here.
        for constraint in omega.constraints:
            key = _constraint_key(constraint)
            if constraint.source_kind == "cfd":
                self._push_guarded(constraint, key, initial=True)
            else:
                self._keys.add(key)
                self._push_constraint(constraint, initial=True)
        self._initial_clauses += emit_order_axioms(
            self._registry, self._session.add_clause, self._used_values
        )
        self._session.ensure_variables(self._registry.num_variables)
        if self._omega.inherently_invalid:
            return  # the encoding is permanently unsatisfiable; no delta state needed

        # Seed the delta-tracking state so apply_delta() can diff against it.
        for attribute, values in self._used_values.items():
            self._used_keys[attribute] = {canonical_value(value) for value in values}
        for constraint in self._omega.constraints:
            if constraint.source_kind == "cfd" or not constraint.is_fact():
                continue
            order = self._fact_orders.setdefault(constraint.head.attribute, PartialOrder())
            order.try_add(
                canonical_value(constraint.head.older), canonical_value(constraint.head.newer)
            )
        for attribute in spec.schema.attribute_names:
            self._adom_keys[attribute] = {
                canonical_value(value) for value in spec.instance.active_domain(attribute)
            }

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

        fresh: List[InstanceConstraint] = []
        self._delta_order_facts(old_spec, new_spec, fresh)
        self._delta_currency_constraints(new_spec, delta, fresh)
        new_cfd_constraints = self._delta_cfds(new_spec, delta)
        if not self._delta_fact_closure(fresh):
            # A ground-fact cycle makes the specification inherently invalid.
            # Only the guarded CFD clauses and the conflict clause were pushed;
            # the collected fresh constraints never entered Ω or Φ.
            self._last_delta_constraints = len(new_cfd_constraints) + 1
            return self._delta_report()
        for constraint in fresh:
            self._push_constraint(constraint, initial=False)
        axioms = self._delta_order_axioms(fresh + new_cfd_constraints)
        self._last_delta_constraints = len(fresh) + len(new_cfd_constraints) + axioms
        self._session.ensure_variables(self._registry.num_variables)
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
        out: List[InstanceConstraint],
    ) -> None:
        instance = new_spec.instance
        for attribute in new_spec.schema.attribute_names:
            old_map = old_spec.temporal_instance.order_for(attribute).successor_map()
            new_map = new_spec.temporal_instance.order_for(attribute).successor_map()
            for older_tid, newer_tids in new_map.items():
                known = old_map.get(older_tid) or ()
                older_value = instance[older_tid][attribute]
                for newer_tid in newer_tids:
                    if newer_tid in known:
                        continue
                    newer_value = instance[newer_tid][attribute]
                    if older_value == newer_value:
                        continue
                    self._admit(
                        InstanceConstraint(
                            body=(),
                            head=OrderLiteral._trusted(attribute, older_value, newer_value),
                            source_kind="order",
                            source_name=f"{older_tid}≺{newer_tid}",
                        ),
                        out,
                    )

    # -- delta: currency constraints ---------------------------------------------

    def _delta_currency_constraints(
        self,
        new_spec: Specification,
        delta: TemporalOrderDelta,
        out: List[InstanceConstraint],
    ) -> None:
        if not delta.new_tuples:
            return
        projected = self._options.mode == "projected"
        for attributes, group in self._program.currency_groups:
            # The cache is seeded lazily from the *old* instance: new tuples
            # are already part of new_spec, so seed from old rows only.
            if attributes not in self._projection_rows:
                self._seed_projection_cache_from_old(new_spec, delta, attributes)
            rows = self._projection_rows[attributes]
            seen = self._projection_seen[attributes]
            # Values are normalised, so a positional row is its own
            # projection key.
            fresh_rows: List[Tuple[Value, ...]] = []
            for item in delta.new_tuples:
                row = tuple(item[attribute] for attribute in attributes)
                if projected and row in seen:
                    continue
                seen.add(row)
                fresh_rows.append(row)
            if not fresh_rows:
                continue
            old_rows = list(rows)
            for compiled in group:
                evaluate, source_name = compiled.evaluate, compiled.source_name
                for new_row in fresh_rows:
                    for old_row in old_rows:
                        self._admit_currency(evaluate(new_row, old_row), source_name, out)
                        self._admit_currency(evaluate(old_row, new_row), source_name, out)
                for row1, row2 in itertools.permutations(fresh_rows, 2):
                    self._admit_currency(evaluate(row1, row2), source_name, out)
            rows.extend(fresh_rows)

    def _admit_currency(
        self,
        instantiated: Optional[Tuple[List[Triple], Triple]],
        source_name: str,
        out: List[InstanceConstraint],
    ) -> None:
        """Admit one evaluated currency instance (``None``: vacuous) unless its key is known."""
        if instantiated is None:
            return
        body_triples, head_triple = instantiated
        key = (frozenset(body_triples), head_triple, False)
        if key in self._keys:
            return
        self._keys.add(key)
        out.append(
            InstanceConstraint(
                body=tuple(OrderLiteral(*triple) for triple in body_triples),
                head=OrderLiteral(*head_triple),
                source_kind="currency",
                source_name=source_name,
            )
        )

    def _seed_projection_cache_from_old(
        self, new_spec: Specification, delta: TemporalOrderDelta, attributes: Tuple[str, ...]
    ) -> None:
        # The delta's tuples live at the tail of the extended instance (and a
        # tuple appended with ``tid=None`` only gets its identifier inside
        # the instance), so "old" is the positional prefix, not a tid match.
        tids = new_spec.instance.tids
        new_tids = set(tids[len(tids) - len(delta.new_tuples):])
        projected = self._options.mode == "projected"
        rows: List[Tuple[Value, ...]] = []
        seen: Set[Tuple[Value, ...]] = set()
        for item in new_spec.instance:
            if item.tid in new_tids:
                continue
            row = tuple(item[attribute] for attribute in attributes)
            if projected and row in seen:
                continue
            seen.add(row)
            rows.append(row)
        self._projection_rows[attributes] = rows
        self._projection_seen[attributes] = seen

    # -- delta: constant CFDs ------------------------------------------------------

    def _delta_cfds(
        self, new_spec: Specification, delta: TemporalOrderDelta
    ) -> List[InstanceConstraint]:
        """Refresh the guarded CFD clauses after an active-domain change.

        Returns the *newly added* CFD constraints (for used-value accounting).
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
        fresh: Dict[Tuple, Tuple[Tuple[OrderLiteral, ...], Triple, str]] = {}
        for body, body_key, head_triple, source_name in _cfd_instances(program, new_spec.instance):
            fresh.setdefault((body_key, head_triple, False), (body, head_triple, source_name))
        # Retire guards of CFD instances no longer produced by the current
        # active domains (their bodies grew): stop assuming their guards.
        stale_constraints = []
        for key in [key for key in self._guards if key not in fresh]:
            self._guards.pop(key)
            stale_constraints.append(self._guard_constraints.pop(key))
            self._retired_guards += 1
        if stale_constraints:
            stale_ids = {id(constraint) for constraint in stale_constraints}
            self._omega.constraints = [
                constraint for constraint in self._omega.constraints if id(constraint) not in stale_ids
            ]
        added: List[InstanceConstraint] = []
        for key, (body, head_triple, source_name) in fresh.items():
            if key in self._guards:
                continue
            constraint = InstanceConstraint(
                body=body,
                head=OrderLiteral._trusted(*head_triple),
                source_kind="cfd",
                source_name=source_name,
            )
            self._push_guarded(constraint, key, initial=False)
            added.append(constraint)
        return added

    # -- delta: ground-fact closure -------------------------------------------------

    def _delta_fact_closure(self, fresh: List[InstanceConstraint]) -> bool:
        """Close new ground facts transitively; ``False`` on a fact cycle."""
        new_edges: Dict[str, List[Tuple[Hashable, Hashable]]] = {}
        for constraint in fresh:
            if not constraint.is_fact():
                continue
            new_edges.setdefault(constraint.head.attribute, []).append(
                (canonical_value(constraint.head.older), canonical_value(constraint.head.newer))
            )
        closure_facts: List[InstanceConstraint] = []
        for attribute, edges in new_edges.items():
            order = self._fact_orders.setdefault(attribute, PartialOrder())
            before = set(order.transitive_closure_pairs())
            try:
                for older, newer in edges:
                    order.add(older, newer)
            except CyclicOrderError:
                self._omega.inherently_invalid = True
                self._omega.invalid_reason = (
                    f"the ground currency facts on attribute {attribute!r} form a cycle"
                )
                conflict = InstanceConstraint(
                    body=(), head=None, source_kind="conflict", source_name=attribute
                )
                self._keys.add(_constraint_key(conflict))
                self._push_constraint(conflict, initial=False)
                return False
            for older, newer in order.transitive_closure_pairs():
                if (older, newer) in before or (older, newer) in edges:
                    continue
                self._admit(
                    InstanceConstraint(
                        body=(),
                        head=OrderLiteral(attribute, older, newer),
                        source_kind="closure",
                        source_name=attribute,
                    ),
                    closure_facts,
                )
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

    def _delta_order_axioms(self, new_constraints: List[InstanceConstraint]) -> int:
        """Note the used values of *new_constraints*, push the axioms they add; return how many.

        A newly used value joins the tail of its attribute's used values, so
        the triples it is the newest value of are exactly those
        :meth:`OrderAxioms.triangles` emits from the first new position: no
        earlier delta emitted them, and no Ω clause equals one (see
        :func:`emit_order_axioms`).
        """
        new_counts: Dict[str, int] = {}  # touched attribute → how many values it newly uses
        for constraint in new_constraints:
            head = () if constraint.head is None else (constraint.head,)
            for literal in constraint.body + head:
                count = new_counts.get(literal.attribute, 0)
                for value in (literal.older, literal.newer):
                    count += self._note_used(literal.attribute, value)
                new_counts[literal.attribute] = count

        pushed = 0
        for attribute in sorted(new_counts):
            if not new_counts[attribute]:
                continue
            values = self._used_values[attribute]
            axioms = OrderAxioms(self._registry, attribute, values, self._session.add_clause)
            pushed += axioms.triangles(len(values) - new_counts[attribute])
        self._incremental_clauses += pushed
        self._last_delta_clauses += pushed
        return pushed
