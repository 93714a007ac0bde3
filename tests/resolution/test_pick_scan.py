"""The ``Pick`` dominance scan against the all-pairs definition it replaces.

``_reference_dominated`` and ``_reference_pick`` are the plain quadratic
scan: every comparison-only constraint's body evaluated on every ordered
pair of distinct tuples with different values.  The pruned scan in
:mod:`repro.resolution.baselines` must return exactly the same dominated
sets, and hence the same candidate lists and ``rng.choice`` draws, while
evaluating about a linear number of predicates per constraint.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import CurrencyConstraint, RelationSchema, Specification
from repro.core.constraints import (
    ConstantComparisonPredicate,
    OrderPredicate,
    TupleComparisonPredicate,
)
from repro.core.values import COMPARISON_OPERATORS, is_null, values_equal
from repro.datasets import (
    CareerConfig,
    NBAConfig,
    PersonConfig,
    generate_career_dataset,
    generate_nba_dataset,
    generate_person_dataset,
)
from repro.encoding.variables import canonical_value
from repro.resolution import any_resolution, pick_resolution
from repro.resolution.baselines import (
    _dominated_by_comparison_constraints,
    _split_comparison_bodies,
)

SEEDS = (0, 1, 7)


def _reference_dominated(spec, attribute):
    """The all-pairs scan: O(|Σ_cmp|·n²) predicate evaluations per attribute."""
    dominated = set()
    comparison_constraints = [
        constraint
        for constraint in spec.currency_constraints
        if constraint.is_comparison_only() and constraint.conclusion_attribute == attribute
    ]
    tuples = spec.instance.tuples
    for constraint in comparison_constraints:
        for tuple1 in tuples:
            for tuple2 in tuples:
                if tuple1.tid == tuple2.tid:
                    continue
                if values_equal(tuple1[attribute], tuple2[attribute]):
                    continue
                if all(predicate.evaluate(tuple1, tuple2) for predicate in constraint.body):
                    dominated.add(canonical_value(tuple1[attribute]))
    return dominated


def _reference_pick(spec, rng, favor_currency=True):
    """``Pick`` drawing from the candidates the all-pairs scan leaves."""
    resolved = {}
    for attribute in spec.schema.attribute_names:
        domain = [value for value in spec.instance.active_domain(attribute) if not is_null(value)]
        if not domain:
            domain = list(spec.instance.active_domain(attribute))
        candidates = list(domain)
        if favor_currency:
            dominated = _reference_dominated(spec, attribute)
            undominated = [value for value in domain if canonical_value(value) not in dominated]
            if undominated:
                candidates = undominated
        resolved[attribute] = rng.choice(candidates)
    return resolved


def _typed(resolved):
    """A resolved tuple with each value's type, so 1 and True stay apart."""
    return [(attribute, type(value), value) for attribute, value in resolved.items()]


def _assert_same_as_reference(spec):
    bodies = _split_comparison_bodies(spec)
    tuples = spec.instance.tuples
    for attribute in spec.schema.attribute_names:
        scanned = _dominated_by_comparison_constraints(tuples, attribute, bodies.get(attribute, ()))
        assert scanned == _reference_dominated(spec, attribute), attribute
    for seed in SEEDS:
        assert _typed(pick_resolution(spec, rng=random.Random(seed))) == _typed(
            _reference_pick(spec, random.Random(seed))
        )
        assert _typed(any_resolution(spec, rng=random.Random(seed))) == _typed(
            _reference_pick(spec, random.Random(seed), favor_currency=False)
        )


ATTRIBUTES = ("a", "b", "c")
VALUES = st.one_of(st.none(), st.integers(-2, 2), st.sampled_from(["x", "y", "z"]))


@st.composite
def _predicate(draw, attributes):
    attribute = draw(st.sampled_from(attributes))
    op = draw(st.sampled_from(COMPARISON_OPERATORS))
    if draw(st.booleans()):
        return TupleComparisonPredicate(attribute, op)
    return ConstantComparisonPredicate(draw(st.sampled_from((1, 2))), attribute, op, draw(VALUES))


@st.composite
def small_specs(draw):
    """≤8 tuples (with duplicate rows) over ≤3 attributes, with mixed bodies.

    Constant checks fall on the conclusion attribute and on the others,
    and a few bodies carry an order predicate, which Pick must ignore.
    """
    attributes = ATTRIBUTES[: draw(st.integers(1, 3))]
    schema = RelationSchema("r", list(attributes))
    rows = draw(
        st.lists(st.fixed_dictionaries({name: VALUES for name in attributes}), min_size=1, max_size=6)
    )
    rows += draw(st.lists(st.sampled_from(rows), max_size=8 - len(rows)))
    sigma = []
    for _ in range(draw(st.integers(0, 5))):
        conclusion = draw(st.sampled_from(attributes))
        body = draw(st.lists(_predicate(attributes), max_size=3))
        if draw(st.integers(0, 4)) == 0:
            body.insert(draw(st.integers(0, len(body))), OrderPredicate(draw(st.sampled_from(attributes))))
        sigma.append(CurrencyConstraint(body, conclusion))
    return Specification.from_rows(schema, draw(st.permutations(rows)), sigma)


@given(small_specs())
@settings(max_examples=300, deadline=None)
def test_scan_matches_the_all_pairs_definition(spec):
    _assert_same_as_reference(spec)


def test_scan_matches_on_every_generated_entity():
    datasets = (
        generate_nba_dataset(NBAConfig(num_players=12, seasons=4, seed=5)),
        generate_career_dataset(CareerConfig(num_authors=8, seed=3)),
        generate_person_dataset(PersonConfig(num_entities=12, tuples_per_entity=12, seed=7)),
    )
    for dataset in datasets:
        for entity in dataset.entities:
            _assert_same_as_reference(dataset.specification_for(entity))


def test_pick_evaluates_a_linear_number_of_predicates(monkeypatch):
    """One Pick over a ~55-tuple Person entity: at most 2·n·|Σ_cmp| checks.

    The all-pairs scan evaluates about 200k predicates here; the bound is
    under 10k.
    """
    calls = []

    def counted(evaluate):
        def wrapper(self, tuple1, tuple2):
            calls.append(None)
            return evaluate(self, tuple1, tuple2)

        return wrapper

    for cls in (TupleComparisonPredicate, ConstantComparisonPredicate):
        monkeypatch.setattr(cls, "evaluate", counted(cls.evaluate))
    dataset = generate_person_dataset(
        PersonConfig(num_entities=3, tuples_per_entity=48, versions_per_entity=8, seed=1048)
    )
    spec = dataset.specification_for(dataset.entities[0])
    n = len(spec.instance)
    sigma_cmp = sum(1 for constraint in spec.currency_constraints if constraint.is_comparison_only())
    assert n >= 48 and sigma_cmp >= 80
    pick_resolution(spec, rng=random.Random(0))
    assert 0 < len(calls) <= 2 * n * sigma_cmp
