"""Tests for entity instances, temporal instances and temporal-order deltas."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EntityInstance,
    EntityTuple,
    NULL,
    PartialOrder,
    RelationSchema,
    SchemaError,
    TemporalInstance,
    TemporalOrderDelta,
)
from repro.core.errors import CyclicOrderError

from tests.core._extend_reference import reference_extend


@pytest.fixture
def schema():
    return RelationSchema("r", ["name", "status", "kids"])


@pytest.fixture
def instance(schema):
    rows = [
        EntityTuple(schema, {"name": "E", "status": "working", "kids": 0}),
        EntityTuple(schema, {"name": "E", "status": "retired", "kids": 3}),
        EntityTuple(schema, {"name": "E", "status": "deceased", "kids": None}),
    ]
    return EntityInstance(schema, rows)


class TestEntityInstance:
    def test_tids_assigned_in_order(self, instance):
        assert instance.tids == ("t0", "t1", "t2")

    def test_duplicate_tids_rejected(self, schema):
        rows = [
            EntityTuple(schema, {"name": "E"}, tid="x"),
            EntityTuple(schema, {"name": "E"}, tid="x"),
        ]
        with pytest.raises(SchemaError):
            EntityInstance(schema, rows)

    def test_schema_mismatch_rejected(self, schema):
        other = RelationSchema("other", ["name"])
        with pytest.raises(SchemaError):
            EntityInstance(schema, [EntityTuple(other, {"name": "E"})])

    def test_lookup_by_tid(self, instance):
        assert instance["t1"]["status"] == "retired"
        assert "t1" in instance
        with pytest.raises(SchemaError):
            instance["missing"]

    def test_active_domain_includes_null(self, instance):
        domain = instance.active_domain("kids")
        assert 0 in domain and 3 in domain
        assert any(value is NULL or value is None for value in domain) or NULL in domain

    def test_active_domain_deduplicates(self, schema):
        rows = [
            EntityTuple(schema, {"name": "E", "status": "working"}),
            EntityTuple(schema, {"name": "E", "status": "working"}),
        ]
        assert EntityInstance(schema, rows).active_domain("status") == ("working",)

    def test_conflicting_attributes(self, instance):
        conflicting = instance.conflicting_attributes()
        assert "status" in conflicting
        assert "name" not in conflicting

    def test_with_tuples_appends(self, instance, schema):
        extra = EntityTuple(schema, {"name": "E", "status": "zzz"}, tid="new")
        larger = instance.with_tuples([extra])
        assert len(larger) == 4
        assert len(instance) == 3


class TestTemporalInstance:
    def test_null_ranked_lowest(self, instance):
        temporal = TemporalInstance(instance)
        # t2 has a NULL kids value, so it sits below both other tuples for kids.
        assert temporal.more_current("t2", "t0", "kids")
        assert temporal.more_current("t2", "t1", "kids")
        assert not temporal.more_current("t0", "t2", "kids")

    def test_null_ranking_can_be_disabled(self, instance):
        temporal = TemporalInstance(instance, rank_nulls_lowest=False)
        assert not temporal.more_current("t2", "t0", "kids")

    def test_explicit_orders_are_kept(self, instance):
        order = PartialOrder([("t0", "t1")])
        temporal = TemporalInstance(instance, {"status": order})
        assert temporal.more_current("t0", "t1", "status")

    def test_unknown_attribute_rejected(self, instance):
        with pytest.raises(SchemaError):
            TemporalInstance(instance, {"zzz": PartialOrder()})

    def test_size_counts_edges(self, instance):
        temporal = TemporalInstance(instance, {"status": PartialOrder([("t0", "t1")])})
        # one explicit edge + two NULL-lowest edges on kids
        assert temporal.size() == 3

    def test_extend_with_delta(self, instance, schema):
        temporal = TemporalInstance(instance)
        new_tuple = EntityTuple(schema, {"name": "E", "status": "zzz"}, tid="user")
        delta = TemporalOrderDelta(new_tuples=[new_tuple])
        for tid in instance.tids:
            delta.add("status", tid, "user")
        extended = temporal.extend(delta)
        assert len(extended.instance) == 4
        assert extended.more_current("t0", "user", "status")
        # The original instance is untouched.
        assert len(instance) == 3


class TestTemporalOrderDelta:
    def test_size_and_emptiness(self):
        delta = TemporalOrderDelta()
        assert delta.is_empty()
        delta.add("status", "a", "b")
        assert delta.size() == 1
        assert not delta.is_empty()

    def test_new_tuples_make_it_non_empty(self, schema):
        delta = TemporalOrderDelta(new_tuples=[EntityTuple(schema, {"name": "E"}, tid="x")])
        assert not delta.is_empty()


# -- extend against the whole-instance reference ------------------------------------

_ATTRIBUTES = ("a", "b", "c")


@st.composite
def _extensions(draw):
    """A temporal instance, a primed subset of its active domains and ≤2 deltas.

    Values are mostly NULL.  Explicit edges point upward in one drawn
    permutation of every tuple identifier, so some NULL-lowest pairs run
    against them and are rejected for a cycle; new tuples come with or
    without an identifier, several to a delta.
    """
    schema = RelationSchema("r", list(_ATTRIBUTES))
    value = st.sampled_from([None, None, None, 1, 2, "x"])
    old = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    tids, tuples = [], []
    for position in range(old + sum(sizes)):
        named = draw(st.booleans())
        tid = f"n{position}" if named else None
        tids.append(tid if named else f"t{position}")
        tuples.append(EntityTuple(schema, {a: draw(value) for a in _ATTRIBUTES}, tid=tid))
    rank = {tid: index for index, tid in enumerate(draw(st.permutations(tids)))}

    def edges(count_limit, upto):
        pool = tids[:upto]
        drawn = {}
        for _ in range(draw(st.integers(0, count_limit))):
            if len(pool) < 2:
                break
            first, second = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
            low, high = sorted((first, second), key=rank.__getitem__)
            drawn.setdefault(draw(st.sampled_from(_ATTRIBUTES)), PartialOrder()).try_add(low, high)
        return drawn

    temporal = TemporalInstance(EntityInstance(schema, tuples[:old]), edges(4, old))
    for attribute in draw(st.lists(st.sampled_from(_ATTRIBUTES), unique=True)):
        temporal.instance.active_domain(attribute)
    deltas, start = [], old
    for size in sizes:
        deltas.append(TemporalOrderDelta(edges(4, start + size), tuples[start : start + size]))
        start += size
    return temporal, deltas


def _shape(temporal):
    return temporal.instance.tids, {
        attribute: [(element, list(larger)) for element, larger in order.successor_map().items()]
        for attribute, order in temporal.orders.items()
    }


@given(_extensions())
@settings(max_examples=300, deadline=None)
def test_extend_matches_the_whole_instance_reference(case):
    """Same tids and, per attribute, the same successor lists in the same insertion order."""
    temporal, deltas = case
    expected = temporal
    for delta in deltas:
        try:
            expected = reference_extend(expected, delta)
        except CyclicOrderError:
            with pytest.raises(CyclicOrderError):
                temporal.extend(delta)
            return
        temporal = temporal.extend(delta)
        assert _shape(temporal) == _shape(expected)
        fresh = EntityInstance(temporal.schema, list(temporal.instance))
        for attribute in _ATTRIBUTES:
            assert temporal.instance.active_domain(attribute) == fresh.active_domain(attribute)


def test_a_pickled_instance_keeps_no_domains(instance, schema):
    """The kept active domains stay out of pickles: the bytes are those of an untouched instance."""
    untouched = EntityInstance(schema, list(instance.tuples))
    instance.active_domain("status")
    extended = instance.with_tuples([EntityTuple(schema, {"name": "E", "status": "new"})])
    assert pickle.dumps(instance) == pickle.dumps(untouched)
    assert pickle.dumps(extended) == pickle.dumps(EntityInstance(schema, list(extended.tuples)))
    restored = pickle.loads(pickle.dumps(extended))
    assert restored.tids == extended.tids and restored.tuples == extended.tuples
    assert restored.active_domain("status") == ("working", "retired", "deceased", "new")
