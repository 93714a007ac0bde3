"""Impact mapping: which work does one applied event create?"""

import pytest

from repro.cdc import ConstraintChanged, FeedError, TupleAdded, TupleRetracted
from repro.cdc.impact import RegistryState, touched_attributes
from repro.core import Attribute, AttributeType, RelationSchema
from repro.core.errors import SchemaError
from repro.io.constraints_io import dump_constraints, parse_constraint_text

SCHEMA = RelationSchema(
    "people",
    [
        Attribute("name", AttributeType.STRING),
        Attribute("status", AttributeType.STRING),
        Attribute("city", AttributeType.STRING),
    ],
)

CONSTRAINTS = """
currency: t1.status = 'single' & t2.status = 'married' -> t1 < t2 on status
cfd: status = 'married' -> city = 'NYC'
""".strip()


def _state(constraints=""):
    sigma, gamma = parse_constraint_text(constraints) if constraints else ([], [])
    return RegistryState(SCHEMA, sigma, gamma)


class TestTupleEvents:
    def test_added_affects_only_its_entity(self):
        state = _state()
        impact = state.apply(TupleAdded(entity="e1", row={"name": "a"}))
        assert impact.affected == ("e1",)
        assert impact.rekeyed == impact.removed == impact.touched == ()
        assert state.entities() == ("e1",)

    def test_retracting_one_of_many_keeps_the_entity(self):
        state = _state()
        state.apply(TupleAdded(entity="e1", row={"name": "a"}))
        state.apply(TupleAdded(entity="e1", row={"name": "b"}))
        impact = state.apply(TupleRetracted(entity="e1", row={"name": "a"}))
        assert impact.affected == ("e1",) and impact.removed == ()
        assert state.rows["e1"] == [{"name": "b"}]

    def test_retracting_the_last_row_removes_the_entity(self):
        state = _state()
        state.apply(TupleAdded(entity="e1", row={"name": "a"}))
        impact = state.apply(TupleRetracted(entity="e1", row={"name": "a"}))
        assert impact.removed == ("e1",) and impact.affected == ()
        assert state.entities() == ()

    def test_retracting_an_unobserved_row_is_loud(self):
        state = _state()
        state.apply(TupleAdded(entity="e1", row={"name": "a"}))
        with pytest.raises(FeedError):
            state.apply(TupleRetracted(entity="e1", row={"name": "zzz"}))
        with pytest.raises(FeedError):
            state.apply(TupleRetracted(entity="ghost", row={"name": "a"}))

    def test_specification_matches_serving_shape(self):
        state = _state(CONSTRAINTS)
        state.apply(TupleAdded(entity="e1", row={"name": "a", "status": "single"}))
        spec = state.specification("e1")
        assert spec.name == "e1"
        assert len(spec.instance) == 1
        assert len(spec.currency_constraints) == 1 and len(spec.cfds) == 1


#: Constraints on an attribute the schema does not have.
BAD_CONSTRAINTS = "currency: t1.salary < t2.salary -> t1 < t2 on salary"


class TestConstraintValidation:
    """Σ ∪ Γ is validated once per constraint version, where it always was: at specification()."""

    def test_a_bad_constraint_raises_at_the_first_specification(self):
        state = _state(BAD_CONSTRAINTS)
        state.apply(TupleAdded(entity="e1", row={"name": "a"}))
        for _ in range(2):
            with pytest.raises(SchemaError, match="salary"):
                state.specification("e1")

    def test_a_constraint_change_brings_its_constraints_to_validation(self):
        state = _state(CONSTRAINTS)
        state.apply(TupleAdded(entity="e1", row={"name": "a", "status": "single"}))
        first = state.specification("e1")
        again = state.specification("e1")
        assert again.currency_constraints == first.currency_constraints
        assert again.cfds == first.cfds
        state.apply(ConstraintChanged(constraints=BAD_CONSTRAINTS))
        with pytest.raises(SchemaError, match="salary"):
            state.specification("e1")
        state.apply(ConstraintChanged(constraints=CONSTRAINTS))
        assert len(state.specification("e1").currency_constraints) == 1

    def test_a_direct_edit_of_sigma_is_validated_too(self):
        state = _state(CONSTRAINTS)
        state.apply(TupleAdded(entity="e1", row={"name": "a", "status": "single"}))
        state.specification("e1")
        state.sigma.extend(parse_constraint_text(BAD_CONSTRAINTS)[0])
        with pytest.raises(SchemaError, match="salary"):
            state.specification("e1")
        del state.sigma[-1]
        assert len(state.specification("e1").currency_constraints) == 1


class TestConstraintEvents:
    def test_touched_attributes_are_the_symmetric_difference(self):
        sigma, gamma = parse_constraint_text(CONSTRAINTS)
        # Same sets: nothing touched (reordering a file touches nothing).
        assert touched_attributes(sigma, gamma, list(sigma), list(gamma)) == ()
        # Dropping the CFD touches exactly its attributes.
        assert touched_attributes(sigma, gamma, sigma, []) == ("city", "status")
        # Dropping everything touches the union.
        assert touched_attributes(sigma, gamma, [], []) == ("city", "status")

    def test_entities_split_into_affected_and_rekeyed(self):
        state = _state(CONSTRAINTS)
        state.apply(TupleAdded(entity="hit", row={"name": "a", "status": "single"}))
        state.apply(TupleAdded(entity="miss", row={"name": "b"}))
        sigma, _gamma = parse_constraint_text(CONSTRAINTS)
        impact = state.apply(
            ConstraintChanged(constraints=dump_constraints(sigma, []))
        )
        # "hit" observes a non-null value on the touched attribute "status",
        # so it must re-resolve; "miss" observes nothing on any touched
        # attribute, so its stored result just moves to the new hash.
        assert impact.affected == ("hit",)
        assert impact.rekeyed == ("miss",)
        assert impact.touched == ("city", "status")
        assert [type(c).__name__ for c in state.gamma] == []

    def test_unparsable_constraint_text_is_loud(self):
        state = _state()
        with pytest.raises(FeedError):
            state.apply(ConstraintChanged(constraints="currency: not a constraint"))


class TestReplayDeterminism:
    def test_replay_rebuilds_identical_state(self):
        events = [
            TupleAdded(entity="e1", row={"name": "a", "status": "single"}),
            TupleAdded(entity="e2", row={"name": "b"}),
            TupleAdded(entity="e1", row={"name": "a", "status": "married"}),
            ConstraintChanged(constraints=CONSTRAINTS),
            TupleRetracted(entity="e2", row={"name": "b"}),
        ]
        first = _state()
        for event in events:
            first.apply(event)
        replayed = _state()
        for event in events:
            replayed.apply(event)
        assert replayed.rows == first.rows
        assert dump_constraints(replayed.sigma, replayed.gamma) == dump_constraints(
            first.sigma, first.gamma
        )
