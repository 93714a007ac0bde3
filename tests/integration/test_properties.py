"""Cross-cutting property-based tests on randomly generated specifications.

These check the end-to-end invariants that hold for *every* valid
specification, not just the curated examples:

* suggestions are *sufficient*: answering every suggested attribute with any
  value consistent with the specification lets the framework terminate with a
  complete true tuple;
* the framework never reports a deduced true value that some valid completion
  contradicts (soundness against the brute-force reference);
* resolution is deterministic.
"""

from hypothesis import given, settings

from repro.core import values_equal
from repro.datasets import GeneratedEntity
from repro.evaluation import GroundTruthOracle
from repro.resolution import ConflictResolver, ResolverOptions, SilentOracle, is_valid

from tests.resolution.test_validity import random_specification


@given(random_specification())
@settings(max_examples=30, deadline=None)
def test_framework_is_deterministic(spec):
    """Two automatic runs over the same specification give identical results."""
    resolver = ConflictResolver(ResolverOptions(fallback="pick", random_seed=3))
    first = resolver.resolve(spec, SilentOracle())
    second = resolver.resolve(spec, SilentOracle())
    assert first.valid == second.valid
    assert first.true_values.values == second.true_values.values
    assert first.resolved_tuple == second.resolved_tuple


@given(random_specification())
@settings(max_examples=30, deadline=None)
def test_automatic_resolution_is_sound(spec):
    """Every automatically deduced true value agrees with the brute-force reference."""
    for cfd in spec.cfds:
        in_domain = all(
            any(values_equal(value, existing) for existing in spec.instance.active_domain(attribute))
            for attribute, value in list(cfd.lhs) + [(cfd.rhs_attribute, cfd.rhs_value)]
        )
        if not in_domain:
            return
    if not spec.is_valid_brute_force():
        return
    result = ConflictResolver(ResolverOptions(fallback="none")).resolve(spec, SilentOracle())
    assert result.valid
    reference = spec.true_attributes_brute_force()
    for attribute in result.deduced_attributes:
        assert attribute in reference
        assert values_equal(result.true_values[attribute], reference[attribute])


@given(random_specification())
@settings(max_examples=25, deadline=None)
def test_suggestions_are_sufficient(spec):
    """Answering every suggested attribute with the current tuple of some valid
    completion always drives the framework to a complete resolution."""
    if not is_valid(spec):
        return
    # Use the current tuple of an arbitrary valid completion as "ground truth":
    # it is consistent with the specification by construction.
    completion = next(spec.valid_completions(), None)
    if completion is None:
        return
    truth = completion.current_tuple()
    entity = GeneratedEntity(
        name="random",
        rows=[t.as_dict() for t in spec.instance],
        true_values=dict(truth),
    )
    result = ConflictResolver(ResolverOptions(max_rounds=6, fallback="none")).resolve(
        spec, GroundTruthOracle(entity)
    )
    assert result.valid
    # Every attribute must end up resolved: deduced, user-validated, or
    # trivially single-valued.
    assert result.complete, (
        f"incomplete resolution: known={result.true_values.values}, truth={truth}"
    )


@given(random_specification())
@settings(max_examples=30, deadline=None)
def test_user_input_never_invalidates_a_valid_specification(spec):
    """Feeding back answers drawn from a valid completion keeps S_e ⊕ O_t valid."""
    if not is_valid(spec):
        return
    completion = next(spec.valid_completions(), None)
    if completion is None:
        return
    truth = completion.current_tuple()
    entity = GeneratedEntity(
        name="random", rows=[t.as_dict() for t in spec.instance], true_values=dict(truth)
    )
    result = ConflictResolver(ResolverOptions(max_rounds=6, fallback="none")).resolve(
        spec, GroundTruthOracle(entity)
    )
    assert result.valid
    assert all(round_report.valid for round_report in result.rounds)
