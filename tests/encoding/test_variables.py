"""Tests for ordering atoms, the variable pool and the variable registry."""

import pytest

from repro.core import EncodingError, NULL
from repro.encoding import OrderLiteral, OrderVariableRegistry, canonical_value
from repro.encoding.variables import VariablePool


class TestOrderLiteral:
    def test_reflexive_literal_rejected(self):
        with pytest.raises(EncodingError):
            OrderLiteral("status", "a", "a")

    def test_null_values_are_canonicalised(self):
        literal = OrderLiteral("kids", None, 3)
        assert literal.older is NULL
        with pytest.raises(EncodingError):
            OrderLiteral("kids", None, NULL)

    def test_reversed(self):
        literal = OrderLiteral("status", "working", "retired")
        assert literal.reversed() == OrderLiteral("status", "retired", "working")

    def test_equality_and_hash(self):
        assert OrderLiteral("a", 1, 2) == OrderLiteral("a", 1, 2)
        assert len({OrderLiteral("a", 1, 2), OrderLiteral("a", 1, 2)}) == 1


class TestVariablePool:
    def test_allocation_is_sequential(self):
        pool = VariablePool()
        assert pool.new_variable() == 1
        assert pool.new_variable() == 2
        assert pool.count == 2

    def test_guards_and_pairs_count_on_one_counter(self):
        """A guard and a value pair each take the next number; only the pair decodes."""
        registry = OrderVariableRegistry()
        guard = registry.auxiliary_variable()
        pair = registry.variable_for("a", 1, 2)
        assert (guard, pair, registry.auxiliary_variable()) == (1, 2, 3)
        assert registry.num_variables == len(registry) == 3
        assert registry.get(guard) is None and registry.get(pair) == OrderLiteral("a", 1, 2)


class TestCanonicalValue:
    def test_none_and_null_collapse(self):
        assert canonical_value(None) == canonical_value(NULL)

    def test_plain_values_pass_through(self):
        assert canonical_value("x") == "x"
        assert canonical_value(3) == 3


class TestRegistry:
    def test_variable_allocation_is_stable(self):
        registry = OrderVariableRegistry()
        atom = OrderLiteral("status", "working", "retired")
        first = registry.variable(atom)
        second = registry.variable(OrderLiteral("status", "working", "retired"))
        assert first == second
        assert registry.num_variables == 1

    def test_find_returns_none_for_unknown(self):
        registry = OrderVariableRegistry()
        assert registry.find(OrderLiteral("a", 1, 2)) is None

    def test_decode_round_trip(self):
        registry = OrderVariableRegistry()
        atom = OrderLiteral("status", "working", "retired")
        variable = registry.variable(atom)
        assert registry.decode(variable) == atom
        decoded, positive = registry.decode_literal(-variable)
        assert decoded == atom and positive is False

    def test_decode_unknown_variable_raises(self):
        registry = OrderVariableRegistry()
        with pytest.raises(EncodingError):
            registry.decode(42)

    def test_reversed_atom_is_the_negated_literal(self):
        """One variable per value pair: the first orientation registered is positive."""
        registry = OrderVariableRegistry()
        forward = registry.variable(OrderLiteral("a", 1, 2))
        backward = registry.variable(OrderLiteral("a", 2, 1))
        assert forward > 0 and backward == -forward
        assert registry.num_variables == 1
        assert registry.find(OrderLiteral("a", 2, 1)) == -forward
        assert registry.find_for("a", 2, 1) == -forward
        assert registry.variable_for("a", 2, 1) == -forward

    def test_negative_literal_decodes_to_the_canonical_atom(self):
        registry = OrderVariableRegistry()
        canonical = OrderLiteral("a", 2, 1)
        variable = registry.variable_for("a", 2, 1)
        literal = registry.variable(canonical.reversed())
        assert literal == -variable
        assert registry.decode_literal(literal) == (canonical, False)
        assert registry.get(variable) == canonical
        assert list(registry.literals()) == [(canonical, variable)]

    def test_variables_for_attribute(self):
        registry = OrderVariableRegistry()
        registry.variable(OrderLiteral("a", 1, 2))
        registry.variable(OrderLiteral("b", 1, 2))
        per_attribute = registry.variables_for_attribute("a")
        assert len(per_attribute) == 1
        assert len(registry) == 2

    def test_literals_iteration(self):
        registry = OrderVariableRegistry()
        atom = OrderLiteral("a", 1, 2)
        variable = registry.variable(atom)
        assert list(registry.literals()) == [(atom, variable)]
