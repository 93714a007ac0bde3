"""The integer order-axiom emitter against the object-based reference.

``emit_order_axioms`` (the encoder's full encode, and the cold reference
encoder's) and the incremental encoder's delta path write the total-order
clauses of each ``≺^v_A`` — two per value triple — straight into Φ.  The reference in ``_order_axioms_reference.py``
builds the same clauses from ``OrderLiteral`` objects, one triple at a time,
through a fresh registry: both must give the same clauses, in the same order,
over the same variables.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstantCFD,
    CurrencyConstraint,
    EntityInstance,
    EntityTuple,
    PartialOrder,
    RelationSchema,
    Specification,
    TemporalInstance,
    TemporalOrderDelta,
)
from repro.datasets import PersonConfig, generate_person_dataset
from repro.encoding import (
    ConstraintProgramCache,
    IncrementalEncoder,
    InstantiationOptions,
    instantiate,
)
from repro.encoding.variables import OrderLiteral, OrderVariableRegistry
from repro.resolution.framework import ResolverOptions

from tests.encoding._cold_encoder_reference import encode_specification
from tests.encoding._delta_facts_reference import ReferenceFactsEncoder
from tests.encoding._order_axioms_reference import (
    ReferenceIncrementalEncoder,
    constraint_clause,
    reference_encoding,
    to_clause,
    triangle_clauses,
)
from tests.encoding._recording_session import RecordingSession

OPTION_VARIANTS = (InstantiationOptions(),)

ATTRIBUTES = ("status", "city", "kids")
VALUES = {"status": ("s0", "s1", "s2", "s3"), "city": ("c0", "c1", "c2"), "kids": (0, 1, 2, 3)}
#: Values outside every drawn row, so a delta can grow an active domain.
NEW_VALUES = {"status": ("s9",), "city": ("c9",), "kids": (9,)}


def _value(attribute, extra=()):
    return st.one_of(st.none(), st.sampled_from(VALUES[attribute] + tuple(extra)))


@st.composite
def _currency_constraint(draw, attributes):
    kind = draw(st.sampled_from(("transition", "monotone", "propagation")))
    if kind == "transition":
        attribute = draw(st.sampled_from(attributes))
        values = st.sampled_from(VALUES[attribute])
        older, newer = draw(st.tuples(values, values).filter(lambda pair: pair[0] != pair[1]))
        return CurrencyConstraint.value_transition(attribute, older, newer)
    if kind == "monotone":
        return CurrencyConstraint.monotone(draw(st.sampled_from(attributes)))
    target = draw(st.sampled_from(attributes))
    sources = draw(st.lists(st.sampled_from(attributes), min_size=1, max_size=2, unique=True))
    return CurrencyConstraint.order_propagation(sources, target)


@st.composite
def _cfd(draw, attributes):
    rhs = draw(st.sampled_from(attributes))
    others = [attribute for attribute in attributes if attribute != rhs]
    lhs_attributes = draw(st.lists(st.sampled_from(others), min_size=1, max_size=2, unique=True))
    lhs = {attribute: draw(st.sampled_from(VALUES[attribute])) for attribute in lhs_attributes}
    return ConstantCFD(lhs, rhs, draw(st.sampled_from(VALUES[rhs] + NEW_VALUES[rhs])))


@st.composite
def specs_with_deltas(draw):
    """≤6 tuples over ≤3 attributes with NULLs, Σ, Γ, order edges and ≤2 deltas."""
    attributes = ATTRIBUTES[: draw(st.integers(2, 3))]
    schema = RelationSchema("r", list(attributes))
    rows = [
        {attribute: draw(_value(attribute)) for attribute in attributes}
        for _ in range(draw(st.integers(1, 6)))
    ]
    sigma = draw(st.lists(_currency_constraint(attributes), max_size=4))
    gamma = draw(st.lists(_cfd(attributes), max_size=2)) if len(attributes) > 1 else []
    orders = {}
    positions = st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True)
    for _ in range(draw(st.integers(0, 2 if len(rows) > 1 else 0))):
        older, newer = sorted(draw(positions))
        attribute = draw(st.sampled_from(attributes))
        orders.setdefault(attribute, PartialOrder()).add(f"t{older}", f"t{newer}")
    instance = EntityInstance(schema, [EntityTuple(schema, row) for row in rows])
    spec = Specification(TemporalInstance(instance, orders), sigma, gamma)
    deltas = []
    for _ in range(draw(st.integers(0, 2))):
        row = {a: draw(_value(a, NEW_VALUES[a])) for a in attributes}
        deltas.append(TemporalOrderDelta(new_tuples=[EntityTuple(schema, row)]))
    return spec, deltas


def _registry_map(registry):
    atoms = [(variable, literal) for literal, variable in registry.literals()]
    return atoms, registry.num_variables


def _assert_same_encoder(encoder, reference):
    assert encoder.session.cnf.clauses == reference.session.cnf.clauses
    assert encoder.session.cnf.num_variables == reference.session.cnf.num_variables
    assert _registry_map(encoder.encoding.registry) == _registry_map(reference.encoding.registry)
    assert list(encoder._guards.items()) == list(reference._guards.items())
    assert encoder.statistics() == reference.statistics()


@given(specs_with_deltas())
@settings(max_examples=150, deadline=None)
def test_emitter_matches_the_object_reference(case):
    spec, deltas = case
    for options in OPTION_VARIANTS:
        expected_cnf, expected_registry = reference_encoding(spec, options)
        programs = ConstraintProgramCache()
        for program in (None, programs.program_for(spec, options)):
            encoding = encode_specification(spec, options, program=program)
            assert encoding.cnf.clauses == expected_cnf.clauses
            assert encoding.cnf.num_variables == expected_cnf.num_variables
            assert _registry_map(encoding.registry) == _registry_map(expected_registry)

            encoder = IncrementalEncoder(
                spec, options, session=RecordingSession(), program=program
            )
            reference = ReferenceIncrementalEncoder(
                spec, options, session=RecordingSession(), program=program
            )
            _assert_same_encoder(encoder, reference)
            for delta in deltas:
                assert encoder.apply_delta(delta) == reference.apply_delta(delta)
                _assert_same_encoder(encoder, reference)


@given(specs_with_deltas())
@settings(max_examples=100, deadline=None)
def test_no_omega_key_is_an_axiom_key(case):
    """No order-axiom clause repeats an Ω clause or another axiom clause, as literal sets."""
    spec, deltas = case
    for options in OPTION_VARIANTS:
        for current in [spec] + [spec.extend(delta) for delta in deltas]:
            omega = instantiate(current, options)
            registry = OrderVariableRegistry()
            omega_clauses = {frozenset(constraint_clause(c, registry)) for c in omega}
            axioms = [
                frozenset(to_clause(clause, registry))
                for attribute, values in omega.used_values.items()
                for clause in triangle_clauses(attribute, values)
            ]
            assert len(set(axioms)) == len(axioms)
            assert not omega_clauses & set(axioms)


# -- atom objects per full encode ---------------------------------------------------

#: (tuples per entity, entities) of the batch benchmark's Person size mix; its
#: populations hold three times as many entities, seeded 1000 + tuples.
_BATCH_SIZE_MIX = ((4, 150), (12, 50), (24, 10), (48, 2))
#: Atom objects one full encode may build per ordered value pair; a variable
#: stands for the two ordered pairs of one value pair.
LITERALS_PER_ORDERED_PAIR = 3


def _population(tuples, entities):
    return generate_person_dataset(
        PersonConfig(
            num_entities=entities,
            tuples_per_entity=tuples,
            versions_per_entity=min(24, max(6, tuples // 6)),
            seed=1000 + tuples,
        )
    )


def _whole_population(tuples, entities):
    dataset = _population(tuples, entities)
    return [(dataset, entity) for entity in dataset.entities]


def _batch_pool(seed):
    rng = random.Random(seed)
    pool = []
    for tuples, count in _BATCH_SIZE_MIX:
        dataset = _population(tuples, count * 3)
        pool.extend((dataset, entity) for entity in rng.sample(dataset.entities, count))
    return pool


@pytest.fixture
def literal_counter(monkeypatch):
    """Count :class:`OrderLiteral` constructions, through the constructor and ``_trusted``."""
    built = [0]
    post_init = OrderLiteral.__post_init__
    trusted = OrderLiteral._trusted.__func__

    def counting_post_init(self):
        built[0] += 1
        post_init(self)

    def counting_trusted(cls, attribute, older, newer):
        built[0] += 1
        return trusted(cls, attribute, older, newer)

    monkeypatch.setattr(OrderLiteral, "__post_init__", counting_post_init)
    monkeypatch.setattr(OrderLiteral, "_trusted", classmethod(counting_trusted))
    return built


@pytest.mark.parametrize(
    "pool",
    [
        pytest.param(lambda: _batch_pool(1), id="batch-seed-1"),
        pytest.param(lambda: _whole_population(48, 6), id="person-48"),
    ],
)
def test_full_encode_builds_at_most_three_literals_per_variable(pool, literal_counter):
    options = ResolverOptions().instantiation
    programs = ConstraintProgramCache()
    for dataset, entity in pool():
        spec = dataset.specification_for(entity)
        program = programs.program_for(spec, options)
        literal_counter[0] = 0
        encoder = IncrementalEncoder(spec, program=program)
        ordered_pairs = 2 * sum(1 for _ in encoder.encoding.registry.literals())
        assert literal_counter[0] <= LITERALS_PER_ORDERED_PAIR * ordered_pairs, (
            f"{entity.name}: {literal_counter[0]} literals for {ordered_pairs} ordered pairs"
        )


# -- a delta's facts and closure against whole-order diffs --------------------------


@st.composite
def specs_with_answer_deltas(draw):
    """``specs_with_deltas`` whose new tuples are named and, on drawn attributes, above drawn tuples."""
    spec, deltas = draw(specs_with_deltas())
    tids = list(spec.instance.tids)
    answered = []
    for index, delta in enumerate(deltas):
        user = delta.new_tuples[0].with_tid(f"user_{index}")
        orders = {}
        for attribute in draw(st.lists(st.sampled_from(spec.schema.attribute_names), unique=True)):
            below = draw(st.lists(st.sampled_from(tids), min_size=1, unique=True))
            orders[attribute] = PartialOrder((tid, user.tid) for tid in below)
        answered.append(TemporalOrderDelta(orders, [user]))
        tids.append(user.tid)
    return spec, answered


def _assert_same_facts(spec, deltas):
    encoder = IncrementalEncoder(spec, session=RecordingSession())
    reference = ReferenceFactsEncoder(spec, session=RecordingSession())
    for delta in deltas:
        assert encoder.apply_delta(delta) == reference.apply_delta(delta)
        assert encoder.encoding.omega.records == reference.encoding.omega.records
        assert encoder.encoding.omega.inherently_invalid == reference.encoding.omega.inherently_invalid
        _assert_same_encoder(encoder, reference)


@given(specs_with_answer_deltas())
@settings(max_examples=300, deadline=None)
def test_delta_facts_and_closure_match_the_whole_order_diffs(case):
    """The successor-tail facts and the kept closure set admit the reference's records and clauses."""
    _assert_same_facts(*case)


@st.composite
def fact_chains(draw):
    """Tuple orders that chain value facts, Γ that may hold some of them, and answers above drawn tuples.

    Each attribute ranks its values (NULL lowest) and links drawn tuples in
    rank order, one edge per consecutive pair, so the value facts form
    chains that the full encode closes.  A's values may all be ``p``, which
    leaves a CFD on ``A = p`` with an empty body: its facts can hold pairs
    the chains reach.  Each answer is above drawn tuples of no higher rank,
    so its facts extend the chains and the delta has closure pairs to find.
    """
    attributes = ("A", "B")
    schema = RelationSchema("r", list(attributes))
    values = {"A": draw(st.sampled_from([["p"], ["p", "q"]])), "B": ["b", "m", "r", "w"]}
    rank = {a: {v: i + 1 for i, v in enumerate(draw(st.permutations(values[a])))} for a in attributes}
    value = {a: st.sampled_from(values[a] * 3 + [None]) for a in attributes}
    rows = [{a: draw(value[a]) for a in attributes} for _ in range(draw(st.integers(2, 6)))]

    def level(row, attribute):
        return 0 if row[attribute] is None else rank[attribute][row[attribute]]

    tids = [f"t{i}" for i in range(len(rows))]
    orders = {}
    for attribute in attributes:
        chain = draw(st.lists(st.sampled_from(range(len(rows))), unique=True))
        chain.sort(key=lambda i: level(rows[i], attribute))
        for i, j in zip(chain, chain[1:]):
            orders.setdefault(attribute, PartialOrder()).try_add(tids[i], tids[j])
    gamma = [
        ConstantCFD({"A": draw(st.sampled_from(values["A"]))}, "B", draw(st.sampled_from(values["B"])))
        for _ in range(draw(st.integers(0, 2)))
    ]
    instance = EntityInstance(schema, [EntityTuple(schema, row) for row in rows])
    spec = Specification(TemporalInstance(instance, orders), cfds=gamma)
    deltas = []
    for index in range(draw(st.integers(1, 3))):
        row = {a: draw(value[a]) for a in attributes}
        user = EntityTuple(schema, row, tid=f"user_{index}")
        delta_orders = {}
        for attribute in attributes:
            lower = [tid for tid, old in zip(tids, rows) if level(old, attribute) <= level(row, attribute)]
            below = draw(st.lists(st.sampled_from(lower), unique=True)) if lower else []
            if below:
                delta_orders[attribute] = PartialOrder((tid, user.tid) for tid in below)
        deltas.append(TemporalOrderDelta(delta_orders, [user]))
        tids.append(user.tid)
        rows.append(row)
    return spec, deltas


@given(fact_chains())
@settings(max_examples=300, deadline=None)
def test_delta_closure_over_fact_chains_matches_the_whole_order_diffs(case):
    _assert_same_facts(*case)


def test_a_pair_only_a_guarded_fact_held_is_not_admitted_again():
    """A pair the fact order reaches but only a CFD fact holds is closed already: no closure fact for it.

    ``b ≺ m`` and ``m ≺ r`` are tuple-order facts; the CFD ``A = p → B = r``
    (its body is empty, since ``p`` is A's only value) holds ``b ≺ r``, so
    the full encode admits no closure fact for it.  A delta above every
    tuple touches B's closure, which must still count ``b ≺ r`` as closed.
    """
    schema = RelationSchema("r", ["A", "B"])
    rows = [EntityTuple(schema, {"A": "p", "B": value}) for value in ("b", "m", "r")]
    orders = {"B": PartialOrder([("t0", "t1"), ("t1", "t2")])}
    spec = Specification(
        TemporalInstance(EntityInstance(schema, rows), orders), cfds=[ConstantCFD({"A": "p"}, "B", "r")]
    )
    user = EntityTuple(schema, {"A": "p", "B": "w"}, tid="user_1")
    delta = TemporalOrderDelta({"B": PartialOrder((tid, "user_1") for tid in ("t0", "t1", "t2"))}, [user])
    encoder = IncrementalEncoder(spec, session=RecordingSession())
    assert ("cfd", str(spec.cfds[0]), (), ("B", "b", "r")) in encoder.encoding.omega.records
    encoder.apply_delta(delta)
    assert not [record for record in encoder.encoding.omega.records if record[0] == "closure"]
    _assert_same_facts(spec, [delta])
