"""Tests (including property-based tests) for the PartialOrder data structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CyclicOrderError, PartialOrder


class TestBasics:
    def test_add_and_precedes(self):
        order = PartialOrder()
        assert order.add("a", "b")
        assert order.precedes("a", "b")
        assert not order.precedes("b", "a")

    def test_add_duplicate_edge_returns_false(self):
        order = PartialOrder([("a", "b")])
        assert not order.add("a", "b")

    def test_reflexive_edge_rejected(self):
        order = PartialOrder()
        with pytest.raises(CyclicOrderError):
            order.add("a", "a")

    def test_cycle_rejected(self):
        order = PartialOrder([("a", "b"), ("b", "c")])
        with pytest.raises(CyclicOrderError):
            order.add("c", "a")

    def test_try_add_returns_false_on_cycle(self):
        order = PartialOrder([("a", "b")])
        assert order.try_add("b", "c")
        assert not order.try_add("c", "a")

    def test_transitive_reachability(self):
        order = PartialOrder([("a", "b"), ("b", "c"), ("c", "d")])
        assert order.precedes("a", "d")
        assert ("a", "d") in order
        assert ("d", "a") not in order

    def test_len_counts_direct_edges(self):
        order = PartialOrder([("a", "b"), ("b", "c")])
        assert len(order) == 2

    def test_elements_and_add_element(self):
        order = PartialOrder()
        order.add_element("lonely")
        assert "lonely" in order.elements
        assert len(order) == 0

    def test_unknown_elements_are_unrelated(self):
        order = PartialOrder([("a", "b")])
        assert not order.precedes("a", "zzz")
        assert not order.precedes("zzz", "a")


class TestDerivedQueries:
    def test_comparable(self):
        order = PartialOrder([("a", "b")])
        order.add_element("c")
        assert order.comparable("a", "b")
        assert not order.comparable("a", "c")

    def test_maximal_and_minimal_elements(self):
        order = PartialOrder([("a", "b"), ("a", "c"), ("c", "d")])
        assert order.maximal_elements() == {"b", "d"}
        assert order.minimal_elements() == {"a"}

    def test_maximal_restricted_to_subset(self):
        order = PartialOrder([("a", "b"), ("b", "c")])
        assert order.maximal_elements(among={"a", "b"}) == {"b"}

    def test_transitive_closure_pairs(self):
        order = PartialOrder([("a", "b"), ("b", "c")])
        assert set(order.transitive_closure_pairs()) == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_is_subset_of(self):
        small = PartialOrder([("a", "c")])
        large = PartialOrder([("a", "b"), ("b", "c")])
        assert small.is_subset_of(large)
        assert not large.is_subset_of(small)

    def test_update_merges_orders(self):
        first = PartialOrder([("a", "b")])
        second = PartialOrder([("b", "c")])
        first.update(second)
        assert first.precedes("a", "c")

    def test_update_raises_on_conflicting_orders(self):
        first = PartialOrder([("a", "b")])
        second = PartialOrder([("b", "a")])
        with pytest.raises(CyclicOrderError):
            first.update(second)

    def test_copy_is_independent(self):
        original = PartialOrder([("a", "b")])
        clone = original.copy()
        clone.add("b", "c")
        assert not original.precedes("b", "c")

    def test_equality_is_by_closure(self):
        direct = PartialOrder([("a", "b"), ("b", "c"), ("a", "c")])
        indirect = PartialOrder([("a", "b"), ("b", "c")])
        assert direct == indirect


class TestTopologicalOrder:
    def test_respects_order(self):
        order = PartialOrder([("a", "b"), ("b", "c")])
        assert order.topological_order() == ["a", "b", "c"]

    def test_includes_extra_elements(self):
        order = PartialOrder([("a", "b")])
        result = order.topological_order(elements=["z"])
        assert set(result) == {"a", "b", "z"}

    def test_deterministic_tie_breaking(self):
        order = PartialOrder()
        order.add_element("b")
        order.add_element("a")
        assert order.topological_order() == order.topological_order()


# -- property-based tests -----------------------------------------------------

edges_strategy = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda edge: edge[0] != edge[1]),
    max_size=20,
)


@given(edges_strategy)
@settings(max_examples=60, deadline=None)
def test_try_add_never_creates_cycles(edges):
    """No sequence of try_add calls can introduce a cycle (the order stays a DAG)."""
    order = PartialOrder()
    for smaller, larger in edges:
        order.try_add(smaller, larger)
    for element in order.elements:
        assert not order.precedes(element, element)
    # A topological order must exist for every DAG.
    result = order.topological_order()
    position = {element: index for index, element in enumerate(result)}
    for smaller, larger in order.pairs():
        assert position[smaller] < position[larger]


@given(edges_strategy)
@settings(max_examples=60, deadline=None)
def test_closure_is_transitive(edges):
    """The transitive closure of the accepted edges is itself transitive."""
    order = PartialOrder()
    for smaller, larger in edges:
        order.try_add(smaller, larger)
    closure = order.transitive_closure_pairs()
    for a, b in closure:
        for c, d in closure:
            if b == c:
                assert (a, d) in closure


@given(edges_strategy)
@settings(max_examples=60, deadline=None)
def test_precedes_matches_closure(edges):
    """precedes() answers exactly membership in the transitive closure."""
    order = PartialOrder()
    for smaller, larger in edges:
        order.try_add(smaller, larger)
    closure = order.transitive_closure_pairs()
    for a in order.elements:
        for b in order.elements:
            assert order.precedes(a, b) == ((a, b) in closure)
