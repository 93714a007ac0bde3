"""A model of Φ(S_e) is a valid completion (paper Lemma 5, read as a witness).

Φ holds one variable per pair of used values and forbids every 3-cycle, so a
satisfying model totally orders each attribute's used values.  The helper
below decodes such a model into a :class:`~repro.core.completion.Completion`
and the tests check it the way the paper defines validity: the completion
extends the partial currency orders and satisfies Σ and Γ, and its current
tuple agrees with every deduced true value (a deduced value holds in every
valid completion, so it must hold in this one).
"""

from typing import Optional

import pytest
from hypothesis import event, given, settings

from repro.core import ConstantCFD, CurrencyConstraint, RelationSchema, Specification
from repro.core.completion import Completion
from repro.core.values import values_equal
from repro.encoding import IncrementalEncoder
from repro.encoding.variables import canonical_value
from repro.resolution import deduce_order
from repro.resolution.true_values import extract_true_values

from tests.encoding.test_order_axioms import specs_with_deltas
from tests.resolution.test_validity import random_specification


def representable(spec: Specification) -> bool:
    """Whether a :class:`Completion` can hold every model of *spec*'s Φ.

    A CFD whose LHS constants all occur in the data (an applicable one) puts
    its RHS constant among the used values, and when that constant lies
    outside the active domain the model may rank it most current: a repair
    no completion of the instance represents.
    """
    instance = spec.instance

    def in_domain(attribute, value):
        return any(values_equal(value, existing) for existing in instance.active_domain(attribute))

    for cfd in spec.cfds:
        applicable = all(in_domain(attribute, value) for attribute, value in cfd.lhs)
        if applicable and not in_domain(cfd.rhs_attribute, cfd.rhs_value):
            return False
    return True


def decode_witness(encoding, model) -> Completion:
    """The completion a satisfying *model* of Φ describes.

    Each attribute's used values are ranked by the model's literals: a
    value's rank is how many used values the model puts below it, and a
    strict total order gives the ranks ``0 … n−1``.  Anything else (a pair
    left unordered, a cycle) fails the decode.

    Active-domain values that Φ never mentions go below all used values, in
    active-domain order.  That placement is safe: Ω holds every instance
    that is not vacuous, so each Σ instance on such a value was vacuous for
    reasons no order changes — a false comparison, equal values in a body
    order predicate or the conclusion, or a NULL the instance may not rank
    up — and the completion's checks skip those pairs the same way.  No
    order edge relates it to a different value (that would be a fact), and a
    CFD mentioning its attribute with LHS constants in the data would have
    used it, so the current tuple's CFD checks cannot see it either.
    """
    spec, registry = encoding.specification, encoding.registry
    orders = {}
    for attribute in spec.schema.attribute_names:
        used = encoding.omega.used_values.get(attribute, [])
        keys = [canonical_value(value) for value in used]
        ranks = []
        for key in keys:
            below = 0
            for other in keys:
                if other == key:
                    continue
                literal = registry.find_for(attribute, other, key)
                assert literal is not None, f"{attribute}: no literal for {other!r} ≺ {key!r}"
                below += model.get(abs(literal), False) == (literal > 0)
            ranks.append(below)
        assert sorted(ranks) == list(range(len(keys))), (
            f"{attribute}: the model does not totally order {used!r} (ranks {ranks})"
        )
        ranked = [value for _, value in sorted(zip(ranks, used), key=lambda pair: pair[0])]
        mentioned = set(keys)
        unused = [
            value
            for value in spec.instance.active_domain(attribute)
            if canonical_value(value) not in mentioned
        ]
        orders[attribute] = unused + ranked
    return Completion(spec.temporal_instance, orders)


def check_witness(encoder, model) -> None:
    """The decoded completion is valid and agrees with every deduced true value."""
    spec = encoder.encoding.specification
    completion = decode_witness(encoder.encoding, model)
    assert completion.is_valid_for(spec.currency_constraints, spec.cfds)
    deduced = deduce_order(encoder)
    assert not deduced.conflict
    current = completion.current_tuple()
    for attribute, value in extract_true_values(spec, deduced).values.items():
        assert values_equal(current[attribute], value), (attribute, current[attribute], value)


UNREPRESENTABLE = "skipped: a CFD repairs to a constant outside the active domain"


def check_full_encode(spec: Specification) -> Optional[bool]:
    """Check the Φ of a fresh encoder of *spec*; ``None`` when its models are not representable."""
    if not representable(spec):
        return None
    encoder = IncrementalEncoder(spec)
    result = encoder.session.solve(encoder.assumptions)
    if result.satisfiable:
        check_witness(encoder, result.model)
    return result.satisfiable


def test_the_totality_gap_repro_is_invalid():
    """A Φ whose models may leave two values unordered passes IsValid here.

    ``s1 ≺ s0`` on status carries over to ``c1 ≺ c0`` on city, so ``(s0, c0)``
    is the newest tuple in every completion; the CFD ``status=s0 → city=c1``
    forbids it.  Every layer must say "invalid".
    """
    from repro.resolution import ConflictResolver, ResolverOptions, SilentOracle, is_valid

    schema = RelationSchema("r", ["status", "city"])
    rows = [dict(status="s0", city="c0"), dict(status="s1", city="c1"), dict(status="s2", city="c1")]
    sigma = [
        CurrencyConstraint.value_transition("status", "s1", "s0"),
        CurrencyConstraint.order_propagation(["status"], "city"),
    ]
    gamma = [ConstantCFD({"status": "s0"}, "city", "c1")]
    spec = Specification.from_rows(schema, rows, sigma, gamma)
    assert is_valid(spec) is False
    assert spec.is_valid_brute_force() is False
    for incremental in (True, False):
        options = ResolverOptions(incremental=incremental, fallback="none")
        assert ConflictResolver(options).resolve(spec, SilentOracle()).valid is False


@given(random_specification())
@settings(max_examples=100, deadline=None)
def test_models_of_random_specifications_are_valid_completions(spec):
    satisfiable = check_full_encode(spec)
    if satisfiable is None:
        event(UNREPRESENTABLE)
    else:
        assert satisfiable == spec.is_valid_brute_force()


@given(specs_with_deltas())
@settings(max_examples=100, deadline=None)
def test_session_models_are_valid_completions_after_every_delta(case):
    spec, deltas = case
    current = spec
    for delta in [None] + deltas:
        current = current if delta is None else current.extend(delta)
        if not representable(current):
            event(UNREPRESENTABLE)
            return
    encoder = IncrementalEncoder(spec)
    for delta in [None] + deltas:
        if delta is not None:
            encoder.apply_delta(delta)
        result = encoder.session.solve(encoder.assumptions)
        if result.satisfiable:
            check_witness(encoder, result.model)


@pytest.mark.parametrize(
    "fixture", ["small_nba_dataset", "small_career_dataset", "small_person_dataset"]
)
def test_dataset_entities_have_valid_witnesses(request, fixture):
    dataset = request.getfixturevalue(fixture)
    checked = skipped = 0
    for _, spec in dataset.specifications():
        satisfiable = check_full_encode(spec)
        if satisfiable is None:
            skipped += 1
            continue
        assert satisfiable, spec.name
        checked += 1
    assert checked >= skipped and checked > 0, (checked, skipped)
