"""Tests for DeduceOrder and NaiveDeduce."""

import pytest
from hypothesis import given, settings

from repro.core import (
    ConstantCFD,
    CurrencyConstraint,
    PartialOrder,
    RelationSchema,
    Specification,
    values_equal,
)
from repro.core.errors import CyclicOrderError
from repro.encoding import (
    IncrementalEncoder,
    InstanceConstraintSet,
    OrderLiteral,
    OrderVariableRegistry,
    SpecificationEncoding,
)
from repro.resolution import deduce_order, extract_true_values, naive_deduce

from tests.encoding._cold_encoder_reference import ColdEncoding, encode_specification
from tests.encoding._recording_session import RecordingSession
from tests.encoding.test_order_axioms import specs_with_deltas
from tests.resolution.test_validity import random_specification
from tests.solvers._cnf_reference import CNF
from tests.solvers._unit_propagation_reference import propagate_units


class TestDeduceOrderOnPaperExample:
    def test_edith_orders(self, edith_spec):
        encoder = IncrementalEncoder(edith_spec)
        deduced = deduce_order(encoder)
        assert not deduced.conflict
        # Example 2: status working ≺ retired ≺ deceased, kids null ≺ 0 ≺ 3, AC ordering follows status.
        assert deduced.holds("status", "working", "retired")
        assert deduced.holds("status", "retired", "deceased")
        assert deduced.holds("status", "working", "deceased")  # transitive closure
        assert deduced.holds("kids", 0, 3)
        assert deduced.holds("AC", "212", "213")
        assert deduced.holds("AC", "415", "213")
        assert deduced.holds("city", "NY", "LA")  # via the CFD ψ1
        assert deduced.holds("county", "Manhattan", "Vermont")  # via ϕ8 after the CFD

    def test_george_orders(self, george_spec):
        encoder = IncrementalEncoder(george_spec)
        deduced = deduce_order(encoder)
        # Example 9 (before user input): kids and the working→retired part of status.
        assert deduced.holds("kids", 0, 2)
        assert deduced.holds("status", "working", "retired")
        assert not deduced.holds("status", "unemployed", "retired")
        assert not deduced.holds("status", "retired", "unemployed")

    def test_deduced_size_and_helpers(self, edith_spec):
        encoder = IncrementalEncoder(edith_spec)
        deduced = deduce_order(encoder)
        assert deduced.size() > 0
        domain = edith_spec.instance.active_domain("status")
        assert set(deduced.undominated_values("status", domain)) == {"deceased"}
        assert set(deduced.dominated_values("status", domain)) == {"working", "retired"}


class TestNaiveDeduce:
    def test_agrees_with_deduce_order_on_edith(self, edith_spec):
        encoder = IncrementalEncoder(edith_spec)
        fast = deduce_order(encoder)
        slow = naive_deduce(encoder)
        # NaiveDeduce is at least as complete as DeduceOrder (Lemma 6 is exact).
        for attribute, order in fast.orders.items():
            for older, newer in order.pairs():
                assert slow.order_for(attribute).precedes(older, newer)
        assert slow.sat_calls > 1

    def test_invalid_specification_reports_conflict(self, vj_schema):
        rows = [dict(name="x", status="a"), dict(name="x", status="b")]
        sigma = [
            CurrencyConstraint.value_transition("status", "a", "b"),
            CurrencyConstraint.value_transition("status", "b", "a"),
        ]
        spec = Specification.from_rows(vj_schema, rows, sigma)
        encoder = IncrementalEncoder(spec)
        assert naive_deduce(encoder).conflict
        assert deduce_order(encoder).conflict

    def test_max_pairs_caps_the_work(self, edith_spec):
        encoder = IncrementalEncoder(edith_spec)
        capped = naive_deduce(encoder, max_pairs=1)
        assert capped.sat_calls <= 2


class TestFixpoint:
    def test_feedback_chain_runs_to_the_fixpoint(self):
        """A chain that feeds one more order back per round is followed to its end.

        ``¬(hi ≺ lo)`` on ``A0`` gives ``lo ≺ hi`` on ``A0``; each clause
        ``(lo ≺ hi on A_i) → ¬(hi ≺ lo on A_i+1)`` fires only once the order
        before it was fed back, so twelve links take twelve rounds.
        """
        attributes = [f"A{index}" for index in range(12)]
        registry = OrderVariableRegistry()
        up = {a: registry.variable(OrderLiteral(a, "lo", "hi")) for a in attributes}
        down = {a: registry.variable(OrderLiteral(a, "hi", "lo")) for a in attributes}
        cnf = CNF([[-down["A0"]]])
        for attribute, following in zip(attributes, attributes[1:]):
            cnf.add_clause([-up[attribute], -down[following]])
        encoding = SpecificationEncoding(
            specification=None, omega=InstanceConstraintSet(), registry=registry
        )
        # No encoding of the package reaches the feedback loop, so Φ is built
        # by hand and run on a stand-in encoder.
        deduced = deduce_order(ColdEncoding(encoding, cnf))
        assert not deduced.conflict
        assert [a for a in attributes if deduced.holds(a, "lo", "hi")] == attributes


# -- property-based soundness check ------------------------------------------------


@given(random_specification())
@settings(max_examples=40, deadline=None)
def test_deduced_orders_are_sound(spec):
    """Every order deduced by DeduceOrder holds in every valid completion (soundness)."""
    encoder = IncrementalEncoder(spec)
    deduced = deduce_order(encoder)
    if deduced.conflict or not spec.is_valid_brute_force():
        return
    completions = list(spec.valid_completions())
    assert completions
    for attribute, order in deduced.orders.items():
        domain_keys = {
            str(value): value for value in spec.instance.active_domain(attribute)
        }
        for older, newer in order.pairs():
            # Only check pairs of active-domain values (CFD repair constants
            # are outside the brute-force model).
            if str(older) in domain_keys and str(newer) in domain_keys:
                for completion in completions:
                    assert completion.value_precedes(attribute, older, newer)


@given(random_specification())
@settings(max_examples=40, deadline=None)
def test_deduced_true_values_match_brute_force(spec):
    """Attribute true values extracted from O_d agree with the brute-force reference."""
    for cfd in spec.cfds:
        domain_ok = all(
            any(values_equal(value, existing) for existing in spec.instance.active_domain(attribute))
            for attribute, value in list(cfd.lhs) + [(cfd.rhs_attribute, cfd.rhs_value)]
        )
        if not domain_ok:
            return
    if not spec.is_valid_brute_force():
        return
    encoder = IncrementalEncoder(spec)
    deduced = deduce_order(encoder)
    derived = extract_true_values(spec, deduced)
    reference = spec.true_attributes_brute_force()
    for attribute, value in derived.values.items():
        assert attribute in reference
        assert values_equal(reference[attribute], value)


# -- differential check against the standalone-propagator fixpoint -----------------


def _reference_deduce(cnf, registry, extra_literals=()):
    """The fixpoint as it ran over the standalone propagator, from scratch each round.

    Returns ``None`` on a conflict, else each attribute's closure pairs.
    """
    injected = set(extra_literals)
    while True:
        propagation = propagate_units(cnf, extra_units=sorted(injected))
        if propagation.conflict:
            return None
        orders = {}
        for literal in propagation.forced_literals:
            atom = registry.get(abs(literal))
            if atom is None:
                continue
            older, newer = (atom.older, atom.newer) if literal > 0 else (atom.newer, atom.older)
            try:
                orders.setdefault(atom.attribute, PartialOrder()).add(older, newer)
            except CyclicOrderError:
                return None
        closures = {
            attribute: set(order.transitive_closure_pairs()) for attribute, order in orders.items()
        }
        fed_back = {
            registry.find(OrderLiteral(attribute, older, newer))
            for attribute, pairs in closures.items()
            for older, newer in pairs
        } - {None}
        if fed_back <= injected:
            return closures
        injected |= fed_back


def _closure_pairs(deduced):
    if deduced.conflict:
        return None
    pairs = {
        attribute: set(deduced.order_for(attribute).transitive_closure_pairs())
        for attribute in deduced.above
    }
    return {attribute: closed for attribute, closed in pairs.items() if closed}


@given(specs_with_deltas())
@settings(max_examples=100, deadline=None)
def test_deduce_matches_the_standalone_propagator_fixpoint(case):
    """On the cold reference Φ and on the encoder's session (guards, deltas), O_d is the old fixpoint's."""
    spec, deltas = case
    cold = encode_specification(spec)
    assert _closure_pairs(deduce_order(cold)) == _reference_deduce(cold.cnf, cold.registry)
    encoder = IncrementalEncoder(spec, session=RecordingSession())
    for delta in [None] + deltas:
        if delta is not None:
            encoder.apply_delta(delta)
        deduced = deduce_order(encoder)
        expected = _reference_deduce(
            encoder.session.cnf, encoder.encoding.registry, encoder.assumptions
        )
        assert _closure_pairs(deduced) == expected


def test_deduce_does_not_depend_on_what_the_session_solved_before():
    """A solve's learned clauses must not make DeduceOrder force more afterwards.

    Σ carries the arena order over to capacity and Γ says ``arena=A →
    capacity=15000``: Φ is ``x → y``, ``¬x → ¬y`` and ``¬x → y`` with
    ``x = A ≺ R`` and ``y = 15001 ≺ 15000``.  Every model has ``x``, but unit
    propagation forces nothing.  Refuting ``¬x`` learns the unit ``x``; the
    deduced orders must stay those of a session that never solved.
    """
    schema = RelationSchema("r", ["arena", "capacity"])
    rows = [
        dict(arena="A", capacity=15000),
        dict(arena="A", capacity=15001),
        dict(arena="R", capacity=15000),
    ]
    sigma = [CurrencyConstraint.order_propagation(["arena"], "capacity")]
    gamma = [ConstantCFD({"arena": "A"}, "capacity", 15000)]
    spec = Specification.from_rows(schema, rows, sigma, gamma)
    encoder = IncrementalEncoder(spec)
    before = deduce_order(encoder)
    x = encoder.encoding.order_literal("arena", "A", "R")
    refutation = encoder.session.solve(list(encoder.assumptions) + [-x])
    assert not refutation.satisfiable and refutation.conflicts > 0
    after = deduce_order(encoder)
    assert _closure_pairs(after) == _closure_pairs(before) == {}
    assert _closure_pairs(deduce_order(encode_specification(spec))) == {}
