"""Tests for the CNF conversion (Φ(S_e)) and the SpecificationEncoding object."""

import math

import pytest

from repro.core import ConstantCFD, CurrencyConstraint, RelationSchema, Specification
from repro.encoding import InstantiationOptions, OrderLiteral, encode_specification
from repro.solvers import solve


@pytest.fixture
def schema():
    return RelationSchema("person", ["status", "job", "city", "AC"])


@pytest.fixture
def rows():
    return [
        {"status": "working", "job": "nurse", "city": "NY", "AC": "212"},
        {"status": "retired", "job": "n/a", "city": "LA", "AC": "213"},
    ]


@pytest.fixture
def sigma():
    return [
        CurrencyConstraint.value_transition("status", "working", "retired", "phi1"),
        CurrencyConstraint.order_propagation(["status"], "AC", "phi6"),
    ]


@pytest.fixture
def gamma():
    return [ConstantCFD({"AC": "213"}, "city", "LA", "psi1")]


class TestEncoding:
    def test_encoding_statistics(self, schema, rows, sigma, gamma):
        spec = Specification.from_rows(schema, rows, sigma, gamma)
        encoding = encode_specification(spec)
        stats = encoding.statistics()
        assert stats["tuples"] == 2
        assert stats["currency_constraints"] == 2
        assert stats["cfds"] == 1
        assert stats["clauses"] == len(encoding.cnf)
        assert stats["variables"] == encoding.registry.num_variables

    def test_clause_count_matches_omega(self, schema, rows, sigma, gamma):
        spec = Specification.from_rows(schema, rows, sigma, gamma)
        encoding = encode_specification(spec)
        # One clause per instance constraint of Ω, then two per triple of
        # each attribute's used values; one variable per pair of them.
        sizes = [len(values) for values in encoding.omega.used_values.values()]
        assert len(encoding.cnf) == len(encoding.omega) + sum(2 * math.comb(n, 3) for n in sizes)
        assert encoding.registry.num_variables == sum(math.comb(n, 2) for n in sizes)

    def test_lemma5_satisfiable_for_valid_specification(self, schema, rows, sigma, gamma):
        spec = Specification.from_rows(schema, rows, sigma, gamma)
        encoding = encode_specification(spec)
        assert solve(encoding.cnf).satisfiable
        assert spec.is_valid_brute_force()

    def test_lemma5_unsatisfiable_for_invalid_specification(self, schema, rows):
        sigma = [
            CurrencyConstraint.value_transition("status", "working", "retired"),
            CurrencyConstraint.value_transition("status", "retired", "working"),
        ]
        spec = Specification.from_rows(schema, rows, sigma, [])
        encoding = encode_specification(spec)
        assert not solve(encoding.cnf).satisfiable
        assert not spec.is_valid_brute_force()

    def test_inherently_invalid_specification_gets_empty_clause(self, schema, rows):
        sigma = [
            CurrencyConstraint.value_transition("status", "working", "retired"),
            CurrencyConstraint.value_transition("status", "retired", "working"),
        ]
        spec = Specification.from_rows(schema, rows, sigma, [])
        encoding = encode_specification(spec)
        assert encoding.omega.inherently_invalid
        assert encoding.cnf.has_empty_clause()

    def test_literal_lookup_helpers(self, schema, rows, sigma, gamma):
        spec = Specification.from_rows(schema, rows, sigma, gamma)
        encoding = encode_specification(spec)
        atom = OrderLiteral("status", "working", "retired")
        variable = encoding.find_literal(atom)
        assert variable is not None
        assert encoding.order_literal("status", "working", "retired") == variable
        decoded, positive = encoding.decode(variable)
        assert decoded == atom and positive
        assert encoding.order_literal("status", "zzz", "www") is None

    def test_options_are_recorded(self, schema, rows, sigma, gamma):
        spec = Specification.from_rows(schema, rows, sigma, gamma)
        options = InstantiationOptions(mode="naive")
        encoding = encode_specification(spec, options)
        assert encoding.options.mode == "naive"

    def test_projected_and_naive_encodings_equisatisfiable(self, schema, rows, sigma, gamma):
        spec = Specification.from_rows(schema, rows, sigma, gamma)
        projected = encode_specification(spec, InstantiationOptions(mode="projected"))
        naive = encode_specification(spec, InstantiationOptions(mode="naive"))
        assert solve(projected.cnf).satisfiable == solve(naive.cnf).satisfiable
