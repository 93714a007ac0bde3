"""Tests for the CNF conversion (Φ(S_e)) and the SpecificationEncoding object."""

import math

import pytest

from repro.core import ConstantCFD, CurrencyConstraint, RelationSchema, Specification
from repro.encoding import IncrementalEncoder, InstantiationOptions, OrderLiteral

from tests.encoding._recording_session import RecordingSession


def encode(spec, options=None):
    """An encoder whose Φ can be read back from ``encoder.session.cnf``."""
    return IncrementalEncoder(spec, options, session=RecordingSession())


def satisfiable(encoder):
    return encoder.session.solve(encoder.assumptions).satisfiable


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
        encoder = encode(spec)
        stats = encoder.encoding.statistics()
        assert stats["tuples"] == 2
        assert stats["currency_constraints"] == 2
        assert stats["cfds"] == 1
        assert stats["clauses"] == len(encoder.session.cnf)
        assert stats["variables"] == encoder.encoding.registry.num_variables

    def test_clause_count_matches_omega(self, schema, rows, sigma, gamma):
        spec = Specification.from_rows(schema, rows, sigma, gamma)
        encoder = encode(spec)
        encoding = encoder.encoding
        # One clause per instance constraint of Ω, then two per triple of
        # each attribute's used values; one variable per pair of them, plus
        # one guard per CFD instance.
        sizes = [len(values) for values in encoding.omega.used_values.values()]
        assert len(encoder.session.cnf) == len(encoding.omega) + sum(2 * math.comb(n, 3) for n in sizes)
        assert encoding.registry.num_variables == sum(math.comb(n, 2) for n in sizes) + len(
            encoder.assumptions
        )

    def test_lemma5_satisfiable_for_valid_specification(self, schema, rows, sigma, gamma):
        spec = Specification.from_rows(schema, rows, sigma, gamma)
        assert satisfiable(encode(spec))
        assert spec.is_valid_brute_force()

    def test_lemma5_unsatisfiable_for_invalid_specification(self, schema, rows):
        sigma = [
            CurrencyConstraint.value_transition("status", "working", "retired"),
            CurrencyConstraint.value_transition("status", "retired", "working"),
        ]
        spec = Specification.from_rows(schema, rows, sigma, [])
        assert not satisfiable(encode(spec))
        assert not spec.is_valid_brute_force()

    def test_inherently_invalid_specification_gets_empty_clause(self, schema, rows):
        sigma = [
            CurrencyConstraint.value_transition("status", "working", "retired"),
            CurrencyConstraint.value_transition("status", "retired", "working"),
        ]
        spec = Specification.from_rows(schema, rows, sigma, [])
        encoder = encode(spec)
        assert encoder.encoding.omega.inherently_invalid
        assert encoder.session.cnf.has_empty_clause()

    def test_literal_lookup_helpers(self, schema, rows, sigma, gamma):
        spec = Specification.from_rows(schema, rows, sigma, gamma)
        encoding = encode(spec).encoding
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
        assert encode(spec, options).encoding.options.mode == "naive"

    def test_projected_and_naive_encodings_equisatisfiable(self, schema, rows, sigma, gamma):
        spec = Specification.from_rows(schema, rows, sigma, gamma)
        projected = encode(spec, InstantiationOptions(mode="projected"))
        naive = encode(spec, InstantiationOptions(mode="naive"))
        assert satisfiable(projected) == satisfiable(naive)
