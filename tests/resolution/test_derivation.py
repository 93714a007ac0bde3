"""Tests for derivation rules (TrueDer)."""

import pytest

from repro.core import TrueValueAssignment, values_equal
from repro.encoding import IncrementalEncoder
from repro.resolution import deduce_order, derive_rules, extract_true_values
from repro.resolution.derivation import DerivationRule
from repro.resolution.suggest import derive_candidate_values


@pytest.fixture
def george_context(george_spec):
    encoder = IncrementalEncoder(george_spec)
    deduced = deduce_order(encoder)
    known = extract_true_values(george_spec, deduced)
    candidates = derive_candidate_values(george_spec, deduced, known)
    rules = derive_rules(encoder.encoding, candidates, known)
    return encoder, deduced, known, candidates, rules


class TestDerivationRuleObject:
    def test_preconditions_are_sorted(self):
        rule = DerivationRule({"b": 1, "a": 2}, "c", 3)
        assert rule.precondition_attributes == ("a", "b")
        assert rule.precondition_map() == {"a": 2, "b": 1}

    def test_combined_assignment_includes_target(self):
        rule = DerivationRule({"a": 1}, "c", 3)
        assert rule.combined_assignment() == {"a": 1, "c": 3}

    def test_string_rendering(self):
        rule = DerivationRule({}, "c", 3)
        assert "true" in str(rule)


class TestGeorgeRules:
    """The rules of paper Example 10 must be among those TrueDer extracts."""

    def expect_rule(self, rules, preconditions, target_attribute, target_value):
        for rule in rules:
            if (
                rule.target_attribute == target_attribute
                and values_equal(rule.target_value, target_value)
                and rule.precondition_map() == preconditions
            ):
                return rule
        raised = ", ".join(str(rule) for rule in rules)
        pytest.fail(f"missing rule ({preconditions} → {target_attribute}={target_value!r}); got: {raised}")

    def test_n1_status_retired_implies_job_veteran(self, george_context):
        _, _, _, _, rules = george_context
        self.expect_rule(rules, {"status": "retired"}, "job", "veteran")

    def test_n2_status_retired_implies_ac_212(self, george_context):
        _, _, _, _, rules = george_context
        self.expect_rule(rules, {"status": "retired"}, "AC", "212")

    def test_n3_status_retired_implies_zip(self, george_context):
        _, _, _, _, rules = george_context
        self.expect_rule(rules, {"status": "retired"}, "zip", "12404")

    def test_n5_ac_212_implies_city_ny(self, george_context):
        _, _, _, _, rules = george_context
        self.expect_rule(rules, {"AC": "212"}, "city", "NY")

    def test_n6_status_unemployed_implies_job_na(self, george_context):
        _, _, _, _, rules = george_context
        self.expect_rule(rules, {"status": "unemployed"}, "job", "n/a")

    def test_n7_n8_unemployed_rules(self, george_context):
        _, _, _, _, rules = george_context
        self.expect_rule(rules, {"status": "unemployed"}, "AC", "312")
        self.expect_rule(rules, {"status": "unemployed"}, "zip", "60653")

    def test_county_rules_exist(self, george_context):
        _, _, _, _, rules = george_context
        self.expect_rule(rules, {"city": "NY", "zip": "12404"}, "county", "Accord")
        self.expect_rule(rules, {"city": "Chicago", "zip": "60653"}, "county", "Bronzeville")

    def test_no_rule_targets_known_attributes(self, george_context):
        _, _, known, _, rules = george_context
        for rule in rules:
            assert rule.target_attribute not in known


class TestRuleFiltering:
    def test_cfd_rules_respect_known_values(self, george_spec):
        encoder = IncrementalEncoder(george_spec)
        deduced = deduce_order(encoder)
        known = TrueValueAssignment({"AC": "401"})
        candidates = derive_candidate_values(george_spec, deduced, known)
        rules = derive_rules(encoder.encoding, candidates, known)
        # ψ2 (AC=212 → city=NY) is incompatible with the known AC=401.
        assert not any(
            rule.target_attribute == "city" and values_equal(rule.target_value, "NY")
            for rule in rules
            if rule.source.startswith("cfd")
        )

    def test_rules_are_deduplicated(self, george_context):
        _, _, _, _, rules = george_context
        keys = {(rule.preconditions, rule.target_attribute, str(rule.target_value)) for rule in rules}
        assert len(keys) == len(rules)
