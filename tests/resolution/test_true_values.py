"""Tests for true-value extraction from deduced orders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConstantCFD, CurrencyConstraint, PartialOrder, RelationSchema, Specification
from repro.core.errors import CyclicOrderError
from repro.encoding import IncrementalEncoder
from repro.encoding.variables import canonical_value
from repro.resolution import deduce_order, extract_true_values, true_value_of_attribute
from repro.resolution.deduce import DeducedOrders

from tests.resolution._true_values_reference import reference_true_value, reference_true_values


@pytest.fixture
def schema():
    return RelationSchema("r", ["status", "city", "AC"])


class TestTrueValueExtraction:
    def test_edith_full_true_tuple(self, edith_spec):
        encoder = IncrementalEncoder(edith_spec)
        deduced = deduce_order(encoder)
        truth = extract_true_values(edith_spec, deduced)
        assert truth.values == {
            "name": "Edith Shain",
            "status": "deceased",
            "job": "n/a",
            "kids": 3,
            "city": "LA",
            "AC": "213",
            "zip": "90058",
            "county": "Vermont",
        }

    def test_george_partial_true_values(self, george_spec):
        encoder = IncrementalEncoder(george_spec)
        deduced = deduce_order(encoder)
        truth = extract_true_values(george_spec, deduced)
        # Example 3: only name and kids are derivable automatically.
        assert set(truth.known_attributes()) == {"name", "kids"}
        assert truth["kids"] == 2

    def test_single_value_attribute_is_trivially_true(self, schema):
        spec = Specification.from_rows(schema, [{"status": "a", "city": "NY", "AC": "1"}])
        encoder = IncrementalEncoder(spec)
        deduced = deduce_order(encoder)
        assert true_value_of_attribute(spec, deduced, "status") == "a"

    def test_undetermined_attribute_returns_none(self, schema):
        spec = Specification.from_rows(
            schema,
            [
                {"status": "a", "city": "NY", "AC": "1"},
                {"status": "b", "city": "LA", "AC": "2"},
            ],
        )
        encoder = IncrementalEncoder(spec)
        deduced = deduce_order(encoder)
        assert true_value_of_attribute(spec, deduced, "status") is None

    def test_cfd_repair_value_outside_active_domain(self, schema):
        # The CFD's RHS constant is not observed anywhere; when the CFD fires
        # it becomes the repaired true value of `city`.
        rows = [
            {"status": "working", "city": "NY", "AC": "212"},
            {"status": "retired", "city": "SF", "AC": "213"},
        ]
        sigma = [
            CurrencyConstraint.value_transition("status", "working", "retired"),
            CurrencyConstraint.order_propagation(["status"], "AC"),
            CurrencyConstraint.order_propagation(["status"], "city"),
        ]
        gamma = [ConstantCFD({"AC": "213"}, "city", "LA")]
        spec = Specification.from_rows(schema, rows, sigma, gamma)
        encoder = IncrementalEncoder(spec)
        deduced = deduce_order(encoder)
        assert true_value_of_attribute(spec, deduced, "city") == "LA"

    def test_null_can_be_the_true_value_of_an_all_null_attribute(self, schema):
        spec = Specification.from_rows(schema, [{"status": "a"}, {"status": "b"}])
        encoder = IncrementalEncoder(spec)
        deduced = deduce_order(encoder)
        value = true_value_of_attribute(spec, deduced, "city")
        from repro.core import is_null

        assert is_null(value)


# -- against the per-pair reachability reference ---------------------------------

_ATTRIBUTES = ("status", "city", "AC")
_VALUES = ("a", "b", "c", "d", 1, 1.0, True, 2)
#: Values no drawn row holds: Γ constants outside the active domain.
_OUTSIDE = ("x", "y", 9)


@st.composite
def _specs_with_adds(draw):
    """A spec with Γ constants inside and outside adom, and ``add`` calls of an order left unclosed."""
    schema = RelationSchema("r", list(_ATTRIBUTES))
    value = st.one_of(st.none(), st.sampled_from(_VALUES))
    rows = [
        {attribute: draw(value) for attribute in _ATTRIBUTES}
        for _ in range(draw(st.integers(1, 5)))
    ]
    constant = st.sampled_from(_VALUES + _OUTSIDE)
    gamma = []
    for _ in range(draw(st.integers(0, 3))):
        rhs = draw(st.sampled_from(_ATTRIBUTES))
        lhs = draw(st.sampled_from([a for a in _ATTRIBUTES if a != rhs]))
        gamma.append(ConstantCFD({lhs: draw(constant)}, rhs, draw(constant)))
    spec = Specification.from_rows(schema, rows, cfds=gamma)
    adds = []
    for attribute in _ATTRIBUTES:
        # Direct edges between positions of a drawn permutation point upward
        # only, so the order is acyclic; chains are left unclosed.
        keys = list(dict.fromkeys(canonical_value(v) for v in spec.value_domain(attribute)))
        keys = draw(st.permutations(keys))
        for _ in range(draw(st.integers(0, 2 * len(keys)))):
            if len(keys) < 2:
                break
            low = draw(st.integers(0, len(keys) - 2))
            high = draw(st.integers(low + 1, len(keys) - 1))
            adds.append((attribute, keys[low], keys[high]))
    return spec, adds


def _replayed(adds):
    deduced = DeducedOrders()
    for attribute, older, newer in adds:
        deduced.add(attribute, older, newer)
    return deduced


def _specs_with_orders():
    """A spec and a deduced order built by ``add`` calls that do not close it themselves."""
    return _specs_with_adds().map(lambda case: (case[0], _replayed(case[1])))


@given(_specs_with_orders())
@settings(max_examples=300, deadline=None)
def test_extraction_matches_the_reachability_reference(case):
    spec, deduced = case
    expected = reference_true_values(spec, deduced)
    assert extract_true_values(spec, deduced).values == expected.values
    for attribute in spec.schema.attribute_names:
        assert true_value_of_attribute(spec, deduced, attribute) == reference_true_value(spec, deduced, attribute)


# -- the closed order against a PartialOrder of the same adds -----------------------


def _assert_answers_like(deduced, orders, spec):
    for attribute in _ATTRIBUTES:
        order = orders.get(attribute, PartialOrder())
        domain = list(spec.value_domain(attribute))
        keys = list(dict.fromkeys(canonical_value(value) for value in domain))
        for older in keys:
            for newer in keys:
                assert deduced.holds(attribute, older, newer) == order.precedes(older, newer)
        dominated = [
            value
            for value in domain
            if any(order.precedes(canonical_value(value), other) for other in keys)
        ]
        assert deduced.dominated_values(attribute, domain) == dominated
        assert deduced.undominated_values(attribute, domain) == [
            value for value in domain if not any(value is other for other in dominated)
        ]
        assert set(deduced.order_for(attribute).transitive_closure_pairs()) == set(
            order.transitive_closure_pairs()
        )


@given(_specs_with_adds(), st.data())
@settings(max_examples=300, deadline=None)
def test_closed_orders_answer_like_a_partial_order_of_the_same_adds(case, data):
    """holds, (un)dominated values and the closure pairs match; a contradiction sets ``conflict``."""
    spec, adds = case
    deduced, orders = DeducedOrders(), {}
    for attribute, older, newer in adds:
        assert deduced.add(attribute, older, newer)
        orders.setdefault(attribute, PartialOrder()).add(older, newer)
    assert not deduced.conflict
    _assert_answers_like(deduced, orders, spec)
    for _ in range(data.draw(st.integers(1, 6))):
        attribute = data.draw(st.sampled_from(_ATTRIBUTES))
        keys = list(dict.fromkeys(canonical_value(v) for v in spec.value_domain(attribute)))
        older, newer = data.draw(st.sampled_from(keys)), data.draw(st.sampled_from(keys))
        try:
            orders.setdefault(attribute, PartialOrder()).add(older, newer)
            raised = False
        except CyclicOrderError:
            raised = True
        deduced.conflict = False
        assert deduced.add(attribute, older, newer) is not raised
        assert deduced.conflict is raised
        _assert_answers_like(deduced, orders, spec)
