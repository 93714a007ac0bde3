"""Tests for the Instantiation procedure (Ω(S_e) construction)."""

import pytest

from repro.core import (
    ConstantCFD,
    CurrencyConstraint,
    EntityInstance,
    EntityTuple,
    PartialOrder,
    RelationSchema,
    Specification,
    TemporalInstance,
)
from repro.encoding import IncrementalEncoder, InstantiationOptions, instantiate
from repro.encoding.variables import OrderLiteral

from tests.encoding._recording_session import RecordingSession


@pytest.fixture
def schema():
    return RelationSchema("person", ["status", "job", "kids", "city", "AC"])


def spec_from_rows(schema, rows, sigma=(), gamma=(), orders=None):
    tuples = [EntityTuple(schema, row) for row in rows]
    instance = EntityInstance(schema, tuples)
    return Specification(TemporalInstance(instance, orders or {}), sigma, gamma)


def order_axiom_clauses(encoding, clauses):
    """Φ's order-axiom clauses, each as the set of orders its literals assert.

    An order axiom forbids a 3-cycle: it has three literals on one attribute
    whose asserted orders themselves form a cycle ``a ≺ b ≺ c ≺ a`` (the
    clause fails only when all three reversed orders hold).  No instance
    constraint of Ω has that shape.
    """
    axioms = set()
    for clause in clauses:
        asserted = []
        for literal in clause:
            atom, positive = encoding.decode(literal)
            asserted.append(atom if positive else atom.reversed())
        if len(asserted) != 3 or len({atom.attribute for atom in asserted}) != 1:
            continue
        successor = {atom.older: atom.newer for atom in asserted}
        start = asserted[0].older
        if len(successor) == 3 and successor.get(successor.get(successor[start])) == start:
            axioms.add(frozenset(asserted))
    return axioms


class TestCurrencyOrderInstantiation:
    def test_partial_order_edges_become_facts(self, schema):
        rows = [
            {"status": "working", "job": "a", "kids": 0, "city": "NY", "AC": "1"},
            {"status": "retired", "job": "b", "kids": 1, "city": "LA", "AC": "2"},
        ]
        orders = {"status": PartialOrder([("t0", "t1")])}
        omega = instantiate(spec_from_rows(schema, rows, orders=orders))
        facts = [c for c in omega.facts() if c.source_kind == "order"]
        assert any(
            f.head == OrderLiteral("status", "working", "retired") for f in facts
        )

    def test_equal_valued_edges_are_skipped(self, schema):
        rows = [
            {"status": "working", "job": "a", "kids": 0, "city": "NY", "AC": "1"},
            {"status": "working", "job": "b", "kids": 1, "city": "LA", "AC": "2"},
        ]
        orders = {"status": PartialOrder([("t0", "t1")])}
        omega = instantiate(spec_from_rows(schema, rows, orders=orders))
        assert not [c for c in omega.facts() if c.source_kind == "order"]

    def test_null_lowest_generates_facts(self, schema):
        rows = [
            {"status": "working", "job": "a", "kids": None, "city": "NY", "AC": "1"},
            {"status": "retired", "job": "b", "kids": 3, "city": "LA", "AC": "2"},
        ]
        omega = instantiate(spec_from_rows(schema, rows))
        facts = [c for c in omega.facts() if c.head.attribute == "kids"]
        assert len(facts) == 1


class TestCurrencyConstraintInstantiation:
    def test_value_transition_instantiates_to_fact(self, schema):
        rows = [
            {"status": "working", "job": "a", "kids": 0, "city": "NY", "AC": "1"},
            {"status": "retired", "job": "b", "kids": 1, "city": "LA", "AC": "2"},
        ]
        sigma = [CurrencyConstraint.value_transition("status", "working", "retired")]
        omega = instantiate(spec_from_rows(schema, rows, sigma))
        currency = omega.by_kind("currency")
        assert len(currency) == 1
        assert currency[0].body == ()
        assert currency[0].head == OrderLiteral("status", "working", "retired")

    def test_propagation_instantiates_with_body(self, schema):
        rows = [
            {"status": "working", "job": "nurse", "kids": 0, "city": "NY", "AC": "1"},
            {"status": "retired", "job": "n/a", "kids": 1, "city": "LA", "AC": "2"},
        ]
        sigma = [CurrencyConstraint.order_propagation(["status"], "job")]
        omega = instantiate(spec_from_rows(schema, rows, sigma))
        currency = omega.by_kind("currency")
        assert len(currency) == 2  # both orientations of the pair
        bodies = {c.body for c in currency}
        assert (OrderLiteral("status", "working", "retired"),) in bodies

    def test_equal_conclusion_values_skip_the_pair(self, schema):
        rows = [
            {"status": "working", "job": "n/a", "kids": 0, "city": "NY", "AC": "1"},
            {"status": "retired", "job": "n/a", "kids": 1, "city": "LA", "AC": "2"},
        ]
        sigma = [CurrencyConstraint.order_propagation(["status"], "job")]
        omega = instantiate(spec_from_rows(schema, rows, sigma))
        assert not omega.by_kind("currency")

    def test_null_conclusion_is_vacuous(self, schema):
        rows = [
            {"status": "working", "job": "nurse", "kids": 0, "city": "NY", "AC": "1"},
            {"status": "retired", "job": None, "kids": 1, "city": "LA", "AC": "2"},
        ]
        sigma = [CurrencyConstraint.order_propagation(["status"], "job")]
        omega = instantiate(spec_from_rows(schema, rows, sigma))
        heads = [c.head for c in omega.by_kind("currency")]
        # Only the direction ranking NULL below the present value may appear.
        assert all(h.newer == "nurse" for h in heads)

    def test_cross_attribute_null_body_is_vacuous(self, schema):
        # A missing allpoints-style body value must not misorder another attribute.
        rows = [
            {"status": None, "job": "nurse", "kids": 0, "city": "NY", "AC": "1"},
            {"status": "retired", "job": "n/a", "kids": 1, "city": "LA", "AC": "2"},
        ]
        sigma = [CurrencyConstraint.order_propagation(["status"], "job")]
        omega = instantiate(spec_from_rows(schema, rows, sigma))
        assert not omega.by_kind("currency")

    def test_single_attribute_null_comparison_still_fires(self, schema):
        # ϕ4 of the paper: null < k orders the kids values themselves.
        rows = [
            {"status": "a", "job": "a", "kids": None, "city": "NY", "AC": "1"},
            {"status": "b", "job": "b", "kids": 3, "city": "LA", "AC": "2"},
        ]
        sigma = [CurrencyConstraint.monotone("kids")]
        omega = instantiate(spec_from_rows(schema, rows, sigma))
        # The same fact also arises from the NULL-lowest convention, so the
        # deduplicated Ω may attribute it to either source; what matters is
        # that the order NULL ≺ 3 is asserted as a ground fact.
        heads = [c.head for c in omega.facts()]
        assert OrderLiteral("kids", None, 3) in heads

    def test_naive_and_projected_modes_agree(self, schema):
        rows = [
            {"status": "working", "job": "nurse", "kids": 0, "city": "NY", "AC": "1"},
            {"status": "retired", "job": "n/a", "kids": 1, "city": "LA", "AC": "2"},
            {"status": "retired", "job": "n/a", "kids": 1, "city": "LA", "AC": "2"},
            {"status": "deceased", "job": "n/a", "kids": 2, "city": "SF", "AC": "3"},
        ]
        sigma = [
            CurrencyConstraint.value_transition("status", "working", "retired"),
            CurrencyConstraint.order_propagation(["status"], "AC"),
            CurrencyConstraint.monotone("kids"),
        ]
        spec = spec_from_rows(schema, rows, sigma)
        projected = instantiate(spec, InstantiationOptions(mode="projected"))
        naive = instantiate(spec, InstantiationOptions(mode="naive"))

        def key_set(omega):
            return {
                (c.body, c.head)
                for c in omega.by_kind("currency", "order", "closure")
            }

        assert key_set(projected) == key_set(naive)

    def test_unknown_mode_rejected(self, schema):
        rows = [{"status": "a", "job": "a", "kids": 0, "city": "NY", "AC": "1"}]
        from repro.core import EncodingError

        with pytest.raises(EncodingError):
            instantiate(spec_from_rows(schema, rows), InstantiationOptions(mode="bogus"))


class TestCFDInstantiation:
    def test_cfd_emits_one_constraint_per_other_value(self, schema):
        rows = [
            {"status": "a", "job": "a", "kids": 0, "city": "NY", "AC": "212"},
            {"status": "b", "job": "b", "kids": 1, "city": "LA", "AC": "213"},
            {"status": "c", "job": "c", "kids": 2, "city": "SF", "AC": "415"},
        ]
        gamma = [ConstantCFD({"AC": "213"}, "city", "LA")]
        omega = instantiate(spec_from_rows(schema, rows, gamma=gamma))
        cfd_constraints = omega.by_kind("cfd")
        assert len(cfd_constraints) == 2  # NY ≺ LA and SF ≺ LA
        for constraint in cfd_constraints:
            assert constraint.head.newer == "LA"
            assert len(constraint.body) == 2  # 212 ≺ 213 and 415 ≺ 213

    def test_cfd_with_lhs_constant_not_in_domain_is_skipped(self, schema):
        rows = [{"status": "a", "job": "a", "kids": 0, "city": "NY", "AC": "212"}]
        gamma = [ConstantCFD({"AC": "999"}, "city", "LA")]
        omega = instantiate(spec_from_rows(schema, rows, gamma=gamma))
        assert not omega.by_kind("cfd")

    def test_cfd_with_rhs_constant_outside_domain_acts_as_repair(self, schema):
        rows = [
            {"status": "a", "job": "a", "kids": 0, "city": "NY", "AC": "212"},
            {"status": "b", "job": "b", "kids": 1, "city": "SF", "AC": "213"},
        ]
        gamma = [ConstantCFD({"AC": "213"}, "city", "LA")]
        omega = instantiate(spec_from_rows(schema, rows, gamma=gamma))
        cfd_constraints = omega.by_kind("cfd")
        assert {c.head.newer for c in cfd_constraints} == {"LA"}
        assert {c.head.older for c in cfd_constraints} == {"NY", "SF"}


class TestStructuralAxioms:
    def test_asymmetry_and_transitivity_emitted(self, schema):
        """Three used values of one attribute give one triple: its two no-cycle clauses."""
        rows = [
            {"status": "a", "job": "x", "kids": 0, "city": "NY", "AC": "1"},
            {"status": "b", "job": "y", "kids": 1, "city": "LA", "AC": "2"},
            {"status": "c", "job": "z", "kids": 2, "city": "SF", "AC": "3"},
        ]
        sigma = [
            CurrencyConstraint.value_transition("status", "a", "b"),
            CurrencyConstraint.value_transition("status", "b", "c"),
        ]
        session = RecordingSession()
        encoding = IncrementalEncoder(spec_from_rows(schema, rows, sigma), session=session).encoding
        order = {pair: OrderLiteral("status", *pair) for pair in ("ab", "bc", "ca", "ba", "cb", "ac")}
        assert order_axiom_clauses(encoding, session.cnf) == {
            frozenset({order["ba"], order["cb"], order["ac"]}),
            frozenset({order["ab"], order["bc"], order["ca"]}),
        }
        assert len(session.cnf) == len(encoding.omega) + 2
        assert all(len(clause) != 2 for clause in session.cnf)

    def test_ground_fact_closure(self, schema):
        rows = [
            {"status": "a", "job": "x", "kids": 0, "city": "NY", "AC": "1"},
            {"status": "b", "job": "y", "kids": 1, "city": "LA", "AC": "2"},
            {"status": "c", "job": "z", "kids": 2, "city": "SF", "AC": "3"},
        ]
        sigma = [
            CurrencyConstraint.value_transition("status", "a", "b"),
            CurrencyConstraint.value_transition("status", "b", "c"),
        ]
        omega = instantiate(spec_from_rows(schema, rows, sigma))
        closure = omega.by_kind("closure")
        assert any(c.head == OrderLiteral("status", "a", "c") for c in closure)

    def test_cyclic_ground_facts_flag_invalidity(self, schema):
        rows = [
            {"status": "a", "job": "x", "kids": 0, "city": "NY", "AC": "1"},
            {"status": "b", "job": "y", "kids": 1, "city": "LA", "AC": "2"},
        ]
        sigma = [
            CurrencyConstraint.value_transition("status", "a", "b"),
            CurrencyConstraint.value_transition("status", "b", "a"),
        ]
        omega = instantiate(spec_from_rows(schema, rows, sigma))
        assert omega.inherently_invalid

    def test_used_values_collected_per_attribute(self, schema):
        rows = [
            {"status": "a", "job": "x", "kids": 0, "city": "NY", "AC": "1"},
            {"status": "b", "job": "y", "kids": 1, "city": "LA", "AC": "2"},
        ]
        sigma = [CurrencyConstraint.value_transition("status", "a", "b")]
        omega = instantiate(spec_from_rows(schema, rows, sigma))
        assert set(omega.used_values["status"]) == {"a", "b"}
