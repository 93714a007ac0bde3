"""Tests for IsValid, including a property-based cross-check against brute force."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstantCFD,
    CurrencyConstraint,
    RelationSchema,
    Specification,
)
from repro.encoding import IncrementalEncoder, InstantiationOptions
from repro.resolution import check_validity, is_valid


class TestIsValid:
    def test_paper_specifications_are_valid(self, edith_spec, george_spec):
        assert is_valid(edith_spec)
        assert is_valid(george_spec)

    def test_empty_constraint_sets_are_valid(self, vj_schema):
        spec = Specification.from_rows(vj_schema, [dict(name="x", status="a")])
        assert is_valid(spec)

    def test_conflicting_transitions_are_invalid(self, vj_schema):
        rows = [dict(name="x", status="a"), dict(name="x", status="b")]
        sigma = [
            CurrencyConstraint.value_transition("status", "a", "b"),
            CurrencyConstraint.value_transition("status", "b", "a"),
        ]
        assert not is_valid(Specification.from_rows(vj_schema, rows, sigma))

    def test_cfd_conflicting_with_currency_is_invalid(self, vj_schema):
        # The currency constraints force AC=213 to be latest, the CFD then
        # forces city=LA to be latest, but a second CFD on the same AC forces
        # city=NY: the two repairs clash.
        rows = [
            dict(name="x", status="working", city="NY", AC="212"),
            dict(name="x", status="retired", city="LA", AC="213"),
        ]
        sigma = [
            CurrencyConstraint.value_transition("status", "working", "retired"),
            CurrencyConstraint.order_propagation(["status"], "AC"),
        ]
        gamma = [
            ConstantCFD({"AC": "213"}, "city", "LA"),
            ConstantCFD({"AC": "213"}, "city", "NY"),
        ]
        assert not is_valid(Specification.from_rows(vj_schema, rows, sigma, gamma))

    def test_report_exposes_encoding(self, edith_spec):
        report = check_validity(IncrementalEncoder(edith_spec))
        assert report.valid
        assert bool(report) is True
        assert report.encoding.statistics()["clauses"] > 0

    def test_existing_encoding_is_reused(self, edith_spec):
        encoder = IncrementalEncoder(edith_spec)
        report = check_validity(encoder)
        assert report.encoding is encoder.encoding

    def test_validity_under_naive_instantiation(self, edith_spec):
        assert is_valid(edith_spec, InstantiationOptions(mode="naive"))


# -- property-based cross-check with the brute-force reference -------------------

STATUS_VALUES = ["s0", "s1", "s2"]
CITY_VALUES = ["c0", "c1"]


@st.composite
def random_specification(draw):
    """Small random specifications over a 3-attribute schema."""
    schema = RelationSchema("r", ["status", "city", "kids"])
    num_rows = draw(st.integers(1, 3))
    rows = []
    for _ in range(num_rows):
        rows.append(
            {
                "status": draw(st.sampled_from(STATUS_VALUES)),
                "city": draw(st.sampled_from(CITY_VALUES)),
                "kids": draw(st.integers(0, 2)),
            }
        )
    sigma = []
    for _ in range(draw(st.integers(0, 3))):
        older, newer = draw(
            st.tuples(st.sampled_from(STATUS_VALUES), st.sampled_from(STATUS_VALUES)).filter(
                lambda pair: pair[0] != pair[1]
            )
        )
        sigma.append(CurrencyConstraint.value_transition("status", older, newer))
    if draw(st.booleans()):
        sigma.append(CurrencyConstraint.monotone("kids"))
    if draw(st.booleans()):
        sigma.append(CurrencyConstraint.order_propagation(["status"], "city"))
    gamma = []
    if draw(st.booleans()):
        gamma.append(
            ConstantCFD({"status": draw(st.sampled_from(STATUS_VALUES))}, "city", draw(st.sampled_from(CITY_VALUES)))
        )
    return Specification.from_rows(schema, rows, sigma, gamma)


@given(random_specification())
@settings(max_examples=60, deadline=None)
def test_sat_validity_matches_brute_force(spec):
    """Lemma 5: the SAT check agrees with exhaustive completion enumeration.

    The brute-force reference interprets CFDs strictly over the active domain,
    so the comparison is restricted to specifications whose CFD constants all
    occur in the data (the situation the paper's experiments are in).
    """
    for cfd in spec.cfds:
        domain_ok = all(
            any(value == existing for existing in spec.instance.active_domain(attribute))
            for attribute, value in list(cfd.lhs) + [(cfd.rhs_attribute, cfd.rhs_value)]
        )
        if not domain_ok:
            return
    assert is_valid(spec) == spec.is_valid_brute_force()
