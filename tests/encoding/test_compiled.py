"""Equivalence and caching tests for the compiled constraint programs.

The compiled program is the one builder of Ω; its cold side here is the
object-path reference of ``_instantiate_reference.py``, for full encodes and
for the incremental encoder's deltas.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstantCFD,
    CurrencyConstraint,
    EntityTuple,
    RelationSchema,
    Specification,
    TemporalOrderDelta,
    is_null,
)
from repro.core.constraints import ConstantComparisonPredicate, OrderPredicate, TupleComparisonPredicate
from repro.core.values import COMPARISON_OPERATORS
from repro.core.errors import EncodingError
from repro.encoding import (
    CompiledConstraintProgram,
    ConstraintProgramCache,
    IncrementalEncoder,
    InstantiationOptions,
    compile_program,
    instantiate,
    instantiate_compiled,
)
from repro.encoding.compiled import _cfd_instances
from repro.encoding.variables import OrderLiteral

from tests.conftest import GEORGE_ROWS
from tests.encoding._cold_encoder_reference import encode_specification
from tests.encoding._instantiate_reference import (
    ReferenceDeltaEncoder,
    _constraint_key,
    _instantiate_cfds,
    reference_instantiate,
)
from tests.encoding._order_axioms_reference import reference_encoding
from tests.encoding._recording_session import RecordingSession
from tests.encoding.test_order_axioms import specs_with_deltas

OPTION_VARIANTS = (InstantiationOptions(), InstantiationOptions(mode="naive"))
OPTION_IDS = ("projected", "naive")


def assert_same_omega(expected, actual):
    """Two Ω sets agree constraint for constraint, in order, with their bookkeeping."""
    assert actual.inherently_invalid == expected.inherently_invalid
    assert actual.invalid_reason == expected.invalid_reason
    assert len(actual.constraints) == len(expected.constraints)
    for position, (want, got) in enumerate(zip(expected.constraints, actual.constraints)):
        assert want == got, f"constraint {position} differs: {want} vs {got}"
        assert want.source_kind == got.source_kind
        assert want.source_name == got.source_name
    assert list(expected.used_values.items()) == list(actual.used_values.items())


def assert_omega_identical(spec, options):
    """instantiate_compiled must replay the object path constraint for constraint."""
    cold = reference_instantiate(spec, options)
    assert_same_omega(cold, instantiate_compiled(spec, compile_program(spec, options)))
    assert_same_omega(cold, instantiate(spec, options))


class TestInstantiateEquivalence:
    @pytest.mark.parametrize("options", OPTION_VARIANTS, ids=OPTION_IDS)
    def test_edith(self, edith_spec, options):
        assert_omega_identical(edith_spec, options)

    @pytest.mark.parametrize("options", OPTION_VARIANTS, ids=OPTION_IDS)
    def test_george(self, george_spec, options):
        assert_omega_identical(george_spec, options)

    def test_nba_entities(self, small_nba_dataset):
        for _, spec in small_nba_dataset.specifications(limit=3):
            assert_omega_identical(spec, InstantiationOptions())

    def test_career_entities(self, small_career_dataset):
        for _, spec in small_career_dataset.specifications(limit=3):
            assert_omega_identical(spec, InstantiationOptions())

    def test_person_entities(self, small_person_dataset):
        for _, spec in small_person_dataset.specifications(limit=3):
            assert_omega_identical(spec, InstantiationOptions())

    def test_partial_constraint_fractions(self, small_nba_dataset):
        for _, spec in small_nba_dataset.specifications(
            sigma_fraction=0.5, gamma_fraction=0.5, limit=2
        ):
            assert_omega_identical(spec, InstantiationOptions())

    def test_cnf_encoding_identical(self, edith_spec):
        options = InstantiationOptions()
        cold_cnf, cold_registry = reference_encoding(edith_spec, options)
        for program in (None, compile_program(edith_spec, options)):
            compiled = encode_specification(edith_spec, options, program=program)
            assert cold_cnf.clauses == compiled.cnf.clauses
            assert cold_cnf.num_variables == compiled.cnf.num_variables
            assert dict(cold_registry.literals()) == dict(compiled.registry.literals())
            for atom, variable in compiled.registry.literals():
                assert compiled.registry.find(atom.reversed()) == -variable


def _cfd_case(request, name):
    if name == "repair":
        # ψ fires on George's AC=212 and repairs city to a value no tuple
        # holds; ψ' names an area code outside adom(AC) and is vacuous.
        george = request.getfixturevalue("george_spec")
        return george.with_constraints(
            cfds=[
                ConstantCFD({"AC": "212"}, "city", "Boston", "psi"),
                ConstantCFD({"AC": "617", "zip": "02840"}, "county", "Suffolk", "psi'"),
            ]
        )
    return request.getfixturevalue(f"{name}_spec")


class TestCfdInstances:
    """The one CFD stamper, shared by full encodes and deltas, against the object path."""

    @pytest.mark.parametrize("case", ["edith", "george", "repair"])
    def test_match_the_object_path(self, request, case):
        spec = _cfd_case(request, case)
        expected = []
        _instantiate_cfds(spec, expected.append)
        stamped = list(_cfd_instances(compile_program(spec), spec.instance))
        assert [
            (tuple(OrderLiteral(*triple) for triple in body), OrderLiteral(*head), name)
            for body, _, head, name in stamped
        ] == [(constraint.body, constraint.head, constraint.source_name) for constraint in expected]
        for body, body_key, _, _ in stamped:
            assert body_key == frozenset(body)


class TestProgramOptions:
    """A given program decides the options; without one, the options compile it."""

    NAIVE = InstantiationOptions(mode="naive")

    def test_encode_specification_follows_the_program(self, edith_spec):
        program = compile_program(edith_spec, self.NAIVE)
        encoding = encode_specification(edith_spec, InstantiationOptions(), program=program)
        expected_cnf, _ = reference_encoding(edith_spec, self.NAIVE)
        assert encoding.encoding.options is self.NAIVE
        assert program.instantiations == 1
        assert encoding.cnf.clauses == expected_cnf.clauses

    def test_incremental_encoder_follows_the_program(self, george_spec):
        program = compile_program(george_spec, self.NAIVE)
        encoder = IncrementalEncoder(
            george_spec, InstantiationOptions(), session=RecordingSession(), program=program
        )
        assert encoder.encoding.options is self.NAIVE
        assert program.instantiations == 1

    def test_incremental_encoder_compiles_from_its_options(self, george_spec):
        delta = TemporalOrderDelta(
            new_tuples=[EntityTuple(george_spec.schema, dict(GEORGE_ROWS[2], status="deceased"))]
        )
        own = IncrementalEncoder(george_spec, self.NAIVE, session=RecordingSession())
        given_program = IncrementalEncoder(
            george_spec,
            session=RecordingSession(),
            program=compile_program(george_spec, self.NAIVE),
        )
        _assert_same_delta_state(own, given_program)
        assert own.apply_delta(delta) == given_program.apply_delta(delta)
        _assert_same_delta_state(own, given_program)
        assert own.encoding.options is self.NAIVE


def _assert_same_delta_state(encoder, reference):
    assert encoder.session.cnf.clauses == reference.session.cnf.clauses
    assert encoder.session.cnf.num_variables == reference.session.cnf.num_variables
    assert_same_omega(reference.encoding.omega, encoder.encoding.omega)
    assert list(encoder._guards.items()) == list(reference._guards.items())
    assert encoder.statistics() == reference.statistics()


@given(specs_with_deltas())
@settings(max_examples=150, deadline=None)
def test_delta_omega_matches_the_object_path(case):
    """Every delta's Ω, clauses and guards equal the object path's, option by option."""
    spec, deltas = case
    for options in OPTION_VARIANTS:
        program = compile_program(spec, options)
        encoder = IncrementalEncoder(spec, session=RecordingSession(), program=program)
        reference = ReferenceDeltaEncoder(spec, session=RecordingSession(), program=program)
        _assert_same_delta_state(encoder, reference)
        for delta in deltas:
            assert encoder.apply_delta(delta) == reference.apply_delta(delta)
            _assert_same_delta_state(encoder, reference)


def _currency_keys(omega):
    return {_constraint_key(constraint) for constraint in omega.by_kind("currency")}


class TestDeltaInstances:
    """Directed deltas of George (Fig. 2) on the compiled currency evaluators.

    Each delta is checked against the object-path reference and against a
    from-scratch Ω of the extended specification; the assertions then say
    which instances the new rows contribute.
    """

    def _apply(self, spec, rows, options=None):
        """Apply one delta of *rows*; return Ω and the currency instances it added."""
        delta = TemporalOrderDelta(new_tuples=[EntityTuple(spec.schema, row) for row in rows])
        program = compile_program(spec, options)
        encoder = IncrementalEncoder(spec, session=RecordingSession(), program=program)
        reference = ReferenceDeltaEncoder(spec, session=RecordingSession(), program=program)
        before = _currency_keys(encoder.encoding.omega)
        assert encoder.apply_delta(delta) == reference.apply_delta(delta)
        _assert_same_delta_state(encoder, reference)
        omega = encoder.encoding.omega
        assert _currency_keys(omega) == _currency_keys(instantiate(spec.extend(delta), options))
        return omega, [c for c in omega.by_kind("currency") if _constraint_key(c) not in before]

    def test_null_keeps_its_place_at_the_bottom(self, george_spec):
        row = dict(
            name="George Mendonca", status=None, job="farmer", kids=None,
            city="Boston", AC="617", zip="02101", county="Suffolk",
        )
        omega, added = self._apply(george_spec, [row])
        names = {constraint.source_name for constraint in added}
        # A NULL status is no evidence about job, AC or zip (ϕ5–ϕ7), while
        # ϕ8 still orders the row's county by its city and zip.
        assert not names & {"phi5", "phi6", "phi7"}
        assert "phi8" in names
        # ϕ4 would rank the missing kids count below 0 and 2: the extended
        # instance already holds those NULL-lowest facts, so nothing is added
        # twice, and no instance ranks a NULL above a value.
        null_below = {
            fact.head.newer
            for fact in omega.by_kind("order")
            if fact.head.attribute == "kids" and is_null(fact.head.older)
        }
        assert null_below == {0, 2}
        assert "phi4" not in names
        assert not any(is_null(constraint.head.newer) for constraint in added)

    def test_new_rows_pair_with_each_other(self, george_spec):
        first = dict(
            name="George Mendonca", status="retired", job="veteran", kids=3,
            city="Boston", AC="617", zip="02101", county="Suffolk",
        )
        second = dict(first, city="Salem", AC="978", zip="01970", county="Essex")
        _, added = self._apply(george_spec, [first, second])
        fresh = {"Boston", "Salem"}
        # ϕ8 relates the two new rows in both orientations; no old row holds
        # either city, so only the pairs among the fresh rows give these.
        pairs = {
            (constraint.body[0].older, constraint.body[0].newer, constraint.head.older, constraint.head.newer)
            for constraint in added
            if constraint.source_name == "phi8"
            and {constraint.body[0].older, constraint.body[0].newer} == fresh
        }
        assert pairs == {
            ("Boston", "Salem", "Suffolk", "Essex"),
            ("Salem", "Boston", "Essex", "Suffolk"),
        }

    @pytest.mark.parametrize(
        "options", [InstantiationOptions(), InstantiationOptions(mode="naive")], ids=["projected", "naive"]
    )
    def test_a_repeated_row_adds_no_instance(self, george_spec, options):
        _, added = self._apply(george_spec, [dict(GEORGE_ROWS[1])], options)
        assert added == []


class TestProgram:
    def test_rejects_unknown_mode(self, edith_spec):
        with pytest.raises(EncodingError):
            compile_program(edith_spec, InstantiationOptions(mode="bogus"))

    def test_instantiation_counter(self, edith_spec):
        program = compile_program(edith_spec)
        assert program.instantiations == 0
        instantiate_compiled(edith_spec, program)
        instantiate_compiled(edith_spec, program)
        assert program.instantiations == 2

    def test_currency_groups_follow_sigma(self, edith_spec):
        """Groups by sorted attribute list, in first-use order; Σ order inside a group."""
        expected = {}
        for constraint in edith_spec.currency_constraints:
            attributes = tuple(sorted(constraint.referenced_attributes()))
            expected.setdefault(attributes, []).append(constraint.name)
        groups = compile_program(edith_spec).currency_groups
        assert [(attributes, [c.source_name for c in group]) for attributes, group in groups] == list(
            expected.items()
        )
        assert all(c.attributes == attributes for attributes, group in groups for c in group)
        assert len(groups) < len(edith_spec.currency_constraints)

    def test_program_reusable_across_entities(self, small_nba_dataset):
        pairs = list(small_nba_dataset.specifications(limit=3))
        program = compile_program(pairs[0][1])
        for _, spec in pairs:
            assert_same_omega(reference_instantiate(spec, program.options), instantiate_compiled(spec, program))


class TestProgramCache:
    def test_hit_on_structurally_equal_constraints(self, small_nba_dataset):
        cache = ConstraintProgramCache()
        options = InstantiationOptions()
        pairs = list(small_nba_dataset.specifications(limit=3))
        first = cache.program_for(pairs[0][1], options)
        assert cache.misses == 1
        for _, spec in pairs[1:]:
            assert cache.program_for(spec, options) is first
        assert cache.hits == len(pairs) - 1
        assert len(cache) == 1

    def test_hit_survives_pickling(self, edith_spec):
        # Pool workers receive unpickled constraint copies; the structural
        # cache key must map them to the same program.
        cache = ConstraintProgramCache()
        options = InstantiationOptions()
        program = cache.program_for(edith_spec, options)
        clone = pickle.loads(pickle.dumps(edith_spec))
        assert cache.program_for(clone, options) is program
        assert cache.hits == 1

    def test_miss_on_different_options(self, edith_spec):
        cache = ConstraintProgramCache()
        cache.program_for(edith_spec, InstantiationOptions())
        cache.program_for(edith_spec, InstantiationOptions(mode="naive"))
        assert cache.misses == 2
        assert len(cache) == 2

    def test_miss_on_different_constraints(self, edith_spec):
        cache = ConstraintProgramCache()
        cache.program_for(edith_spec, InstantiationOptions())
        reduced = edith_spec.with_constraints(
            currency_constraints=edith_spec.currency_constraints[:2]
        )
        cache.program_for(reduced, InstantiationOptions())
        assert cache.misses == 2

    def test_statistics(self, edith_spec):
        cache = ConstraintProgramCache()
        program = cache.program_for(edith_spec)
        instantiate_compiled(edith_spec, program)
        cache.program_for(edith_spec)
        stats = cache.statistics()
        assert stats == {
            "programs_compiled": 1,
            "program_cache_hits": 1,
            "program_instantiations": 1,
        }


class TestCacheKey:
    def test_key_is_hashable_and_stable(self, edith_spec):
        options = InstantiationOptions()
        key1 = CompiledConstraintProgram.cache_key(
            edith_spec.schema, edith_spec.currency_constraints, edith_spec.cfds, options
        )
        key2 = CompiledConstraintProgram.cache_key(
            edith_spec.schema, edith_spec.currency_constraints, edith_spec.cfds, options
        )
        assert key1 == key2
        assert hash(key1) == hash(key2)


# -- the value index is exact -----------------------------------------------------

#: Cell values and constants: 1, 1.0 and True are one value; None is NULL.
INDEX_VALUES = (None, 1, 1.0, True, 0, 2, "a", "b")
INDEX_ATTRIBUTES = ("p", "q", "r")


@st.composite
def _comparison_constraint(draw):
    """A body of constant comparisons beyond value transitions, plus tuple and order predicates."""
    conclusion = draw(st.sampled_from(INDEX_ATTRIBUTES))
    constant = st.sampled_from(INDEX_VALUES)
    body = []
    for side in (1, 2):
        # Up to two `=` checks per side, the conclusion attribute included.
        for attribute in draw(st.lists(st.sampled_from(INDEX_ATTRIBUTES), max_size=2)):
            body.append(ConstantComparisonPredicate(side, attribute, "=", draw(constant)))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("constant", "tuple", "order")))
        attribute = draw(st.sampled_from(INDEX_ATTRIBUTES))
        if kind == "constant":
            op = draw(st.sampled_from(("!=", "<", "<=", ">", ">=")))
            body.append(ConstantComparisonPredicate(draw(st.sampled_from((1, 2))), attribute, op, draw(constant)))
        elif kind == "tuple":
            body.append(TupleComparisonPredicate(attribute, draw(st.sampled_from(COMPARISON_OPERATORS))))
        else:
            body.append(OrderPredicate(attribute))
    body = draw(st.permutations(body))
    return CurrencyConstraint(body, conclusion)


@st.composite
def comparison_specs_with_deltas(draw):
    """≤7 tuples with NULL cells and mixed 1/1.0/True values, Σ of constant comparisons, ≤2 deltas."""
    schema = RelationSchema("r", list(INDEX_ATTRIBUTES))
    value = st.sampled_from(INDEX_VALUES)
    rows = [{a: draw(value) for a in INDEX_ATTRIBUTES} for _ in range(draw(st.integers(1, 7)))]
    sigma = draw(st.lists(_comparison_constraint(), min_size=1, max_size=4))
    spec = Specification.from_rows(schema, rows, sigma)
    deltas = [
        TemporalOrderDelta(
            new_tuples=[
                EntityTuple(schema, {a: draw(value) for a in INDEX_ATTRIBUTES})
                for _ in range(draw(st.integers(1, 2)))
            ]
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    return spec, deltas


@given(comparison_specs_with_deltas())
@settings(max_examples=200, deadline=None)
def test_the_value_index_visits_every_pair_that_can_fire(case):
    """Ω through the value index equals the all-pairs object path, full and after deltas."""
    spec, deltas = case
    for options in OPTION_VARIANTS:
        assert_omega_identical(spec, options)
        program = compile_program(spec, options)
        encoder = IncrementalEncoder(spec, session=RecordingSession(), program=program)
        reference = ReferenceDeltaEncoder(spec, session=RecordingSession(), program=program)
        current = spec
        for delta in deltas:
            assert encoder.apply_delta(delta) == reference.apply_delta(delta)
            _assert_same_delta_state(encoder, reference)
            current = current.extend(delta)
            assert_omega_identical(current, options)
