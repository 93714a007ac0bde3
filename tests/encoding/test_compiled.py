"""Equivalence and caching tests for the compiled constraint programs."""

import pickle

import pytest

from repro.core.errors import EncodingError
from repro.encoding import (
    CompiledConstraintProgram,
    ConstraintProgramCache,
    InstantiationOptions,
    compile_program,
    encode_specification,
    instantiate,
    instantiate_compiled,
)

OPTION_VARIANTS = (
    InstantiationOptions(),
    InstantiationOptions(mode="naive"),
    InstantiationOptions(deduplicate=False),
    InstantiationOptions(include_transitivity=False),
    InstantiationOptions(transitivity_cap=3),
)


def assert_omega_identical(spec, options):
    """instantiate_compiled must replay instantiate() constraint for constraint."""
    cold = instantiate(spec, options)
    program = compile_program(spec, options)
    stamped = instantiate_compiled(spec, program)
    assert stamped.inherently_invalid == cold.inherently_invalid
    assert stamped.invalid_reason == cold.invalid_reason
    assert len(stamped.constraints) == len(cold.constraints)
    for position, (expected, actual) in enumerate(zip(cold.constraints, stamped.constraints)):
        assert expected == actual, f"constraint {position} differs: {expected} vs {actual}"
        assert expected.source_kind == actual.source_kind
        assert expected.source_name == actual.source_name
    assert list(cold.used_values) == list(stamped.used_values)
    for attribute in cold.used_values:
        assert cold.used_values[attribute] == stamped.used_values[attribute]
    assert cold.conditional_keys == stamped.conditional_keys


class TestInstantiateEquivalence:
    @pytest.mark.parametrize("options", OPTION_VARIANTS, ids=lambda o: repr(o)[:40])
    def test_edith(self, edith_spec, options):
        assert_omega_identical(edith_spec, options)

    @pytest.mark.parametrize("options", OPTION_VARIANTS, ids=lambda o: repr(o)[:40])
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
        cold = encode_specification(edith_spec, options)
        compiled = encode_specification(edith_spec, program=compile_program(edith_spec, options))
        assert cold.cnf.clauses == compiled.cnf.clauses
        assert cold.cnf.num_variables == compiled.cnf.num_variables
        assert dict(cold.registry.literals()) == dict(compiled.registry.literals())


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

    def test_program_reusable_across_entities(self, small_nba_dataset):
        pairs = list(small_nba_dataset.specifications(limit=3))
        program = compile_program(pairs[0][1])
        for _, spec in pairs:
            cold = instantiate(spec, program.options)
            stamped = instantiate_compiled(spec, program)
            assert cold.constraints == stamped.constraints


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
