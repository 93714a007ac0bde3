"""Tests for the interactive conflict-resolution framework (Fig. 4)."""

import random
from types import SimpleNamespace

import pytest

from repro.api import RunConfig
from repro.core import (
    ConstantCFD,
    CurrencyConstraint,
    RelationSchema,
    ReproError,
    Specification,
    is_null,
    values_equal,
)
from repro.engine import ResolutionEngine
from repro.resolution import ConflictResolver, ResolverOptions, SilentOracle, framework

from tests.conftest import GEORGE_TRUTH, EDITH_TRUTH


class OneShotOracle:
    """Answers a fixed set of attribute values on the first suggestion only."""

    def __init__(self, answers):
        self._answers = dict(answers)
        self._used = False

    def answer(self, suggestion, spec):
        if self._used:
            return {}
        self._used = True
        return {
            attribute: value
            for attribute, value in self._answers.items()
            if attribute in suggestion.attributes
        }


class SequenceOracle:
    """Answers with a different predefined mapping on each successive round."""

    def __init__(self, per_round_answers):
        self._per_round = list(per_round_answers)
        self._round = 0

    def answer(self, suggestion, spec):
        if self._round >= len(self._per_round):
            return {}
        answers = self._per_round[self._round]
        self._round += 1
        return {
            attribute: value
            for attribute, value in answers.items()
            if attribute in suggestion.attributes
        }


class TestAutomaticResolution:
    def test_edith_is_resolved_without_interaction(self, edith_spec):
        result = ConflictResolver().resolve(edith_spec, SilentOracle())
        assert result.valid and result.complete
        assert result.interaction_rounds == 0
        for attribute, value in EDITH_TRUTH.items():
            assert values_equal(result.resolved_tuple[attribute], value)
        assert result.fallback_attributes == ()

    def test_george_without_oracle_falls_back_to_pick(self, george_spec):
        result = ConflictResolver(ResolverOptions(fallback="pick")).resolve(george_spec)
        assert result.valid and not result.complete
        assert set(result.true_values.known_attributes()) == {"name", "kids"}
        assert len(result.fallback_attributes) == 6
        # Every attribute still receives some value.
        assert all(attribute in result.resolved_tuple for attribute in george_spec.schema.attribute_names)

    def test_complete_entity_never_calls_pick(self, edith_spec, george_spec, monkeypatch):
        """Pick runs only for an entity with open attributes, and draws as it always did."""
        calls = []
        pick = framework.pick_resolution

        def counting_pick(spec, rng=None):
            calls.append(spec.name)
            return pick(spec, rng=rng)

        monkeypatch.setattr(framework, "pick_resolution", counting_pick)
        resolver = ConflictResolver(ResolverOptions(fallback="pick"))
        complete = resolver.resolve(edith_spec, SilentOracle())
        assert complete.complete and calls == []

        incomplete = resolver.resolve(george_spec)
        assert not incomplete.complete and calls == ["George"]
        drawn = pick(george_spec, rng=random.Random(resolver.options.random_seed))
        expected = {
            attribute: incomplete.true_values[attribute]
            if attribute in incomplete.true_values
            else drawn[attribute]
            for attribute in george_spec.schema.attribute_names
        }
        assert repr(incomplete.resolved_tuple) == repr(expected)

    def test_george_without_fallback_leaves_nulls(self, george_spec):
        result = ConflictResolver(ResolverOptions(fallback="none")).resolve(george_spec)
        assert any(is_null(value) for value in result.resolved_tuple.values())

    @pytest.mark.parametrize("fallback", ["pick", "none"])
    def test_entity_without_tuples_resolves_to_nulls(self, vj_schema, fallback):
        sigma = [CurrencyConstraint.value_transition("status", "working", "retired")]
        spec = Specification.from_rows(vj_schema, [], sigma, name="empty")
        result = ConflictResolver(ResolverOptions(fallback=fallback)).resolve(spec)
        assert result.valid
        assert result.fallback_attributes == vj_schema.attribute_names
        assert all(is_null(value) for value in result.resolved_tuple.values())


class TestFallbackCheck:
    """A misspelled fallback is refused by the one check RunConfig also runs."""

    def test_resolver_refuses_an_unknown_fallback(self, george_spec):
        with pytest.raises(ReproError) as from_resolver:
            ConflictResolver(ResolverOptions(fallback="Pick", max_rounds=0)).resolve(george_spec)
        with pytest.raises(ReproError) as from_config:
            RunConfig(options=ResolverOptions(fallback="Pick", max_rounds=0))
        assert str(from_resolver.value) == str(from_config.value)
        assert "'Pick'" in str(from_resolver.value)

    def test_engine_refuses_an_unknown_fallback_before_spawning(self):
        with pytest.raises(ReproError, match="fallback"):
            ResolutionEngine(ResolverOptions(fallback="nul"), workers=2)


class TestInteractiveResolution:
    def test_george_with_status_answer_matches_example_6(self, george_spec):
        oracle = OneShotOracle({"status": "retired"})
        result = ConflictResolver().resolve(george_spec, oracle)
        assert result.complete
        assert result.interaction_rounds == 1
        for attribute, value in GEORGE_TRUTH.items():
            assert values_equal(result.resolved_tuple[attribute], value)
        assert result.user_validated_attributes == ("status",)
        assert "status" not in result.deduced_attributes
        assert "city" in result.deduced_attributes

    def test_alternative_answer_yields_consistent_tuple(self, george_spec):
        # Confirming status=unemployed orders job/AC/zip but no CFD fires for
        # AC=312, so city stays open (this is the clique C2 situation of
        # Example 13) and a second round is needed for city.
        oracle = SequenceOracle([{"status": "unemployed"}, {"city": "Chicago"}])
        result = ConflictResolver().resolve(george_spec, oracle)
        assert result.complete
        assert result.interaction_rounds == 2
        assert result.resolved_tuple["status"] == "unemployed"
        assert result.resolved_tuple["job"] == "n/a"
        assert result.resolved_tuple["AC"] == "312"
        assert result.resolved_tuple["zip"] == "60653"
        assert result.resolved_tuple["county"] == "Bronzeville"

    def test_round_reports_track_progress(self, george_spec):
        oracle = OneShotOracle({"status": "retired"})
        result = ConflictResolver().resolve(george_spec, oracle)
        assert len(result.rounds) == 2
        first, second = result.rounds
        assert first.suggestion is not None and first.answers == {"status": "retired"}
        assert len(second.deduced_attributes) == 8
        assert first.encoding_statistics["clauses"] > 0
        totals = result.total_seconds()
        assert set(totals) == {"encode", "validity", "deduce", "suggest"}

    def test_max_rounds_zero_disables_interaction(self, george_spec):
        oracle = OneShotOracle({"status": "retired"})
        result = ConflictResolver(ResolverOptions(max_rounds=0, fallback="none")).resolve(george_spec, oracle)
        assert result.interaction_rounds == 0
        assert not result.complete

    def test_new_value_outside_active_domain_is_accepted(self, george_spec):
        # The user supplies a status value never observed in the data.
        oracle = OneShotOracle({"status": "deceased"})
        result = ConflictResolver().resolve(george_spec, oracle)
        assert result.valid
        assert result.resolved_tuple["status"] == "deceased"
        assert "status" in result.user_validated_attributes

    def test_deduced_fraction_helper(self, george_spec):
        result = ConflictResolver().resolve(george_spec, SilentOracle())
        fraction = result.deduced_fraction()
        assert 0.0 < fraction < 1.0


class TestInvalidSpecifications:
    def test_invalid_specification_is_reported(self, vj_schema):
        rows = [dict(name="x", status="a"), dict(name="x", status="b")]
        sigma = [
            CurrencyConstraint.value_transition("status", "a", "b"),
            CurrencyConstraint.value_transition("status", "b", "a"),
        ]
        spec = Specification.from_rows(vj_schema, rows, sigma)
        result = ConflictResolver().resolve(spec, SilentOracle())
        assert not result.valid
        assert result.rounds[0].valid is False

    @pytest.mark.parametrize("incremental", [True, False])
    def test_deduce_conflict_makes_the_round_invalid(self, incremental):
        """No completion exists, so the first round is invalid and deduces nothing.

        ``s1 ≺ s0`` on status carries over to ``c1 ≺ c0`` on city, so the
        newest tuple is ``(s0, c0)``, which the CFD ``status=s0 → city=c1``
        forbids.  The round must end as invalid instead of reporting the
        deduced ``{status: s0, city: c0}``.
        """
        schema = RelationSchema("r", ["status", "city"])
        rows = [
            dict(status="s0", city="c0"),
            dict(status="s1", city="c1"),
            dict(status="s2", city="c1"),
        ]
        sigma = [
            CurrencyConstraint.value_transition("status", "s1", "s0"),
            CurrencyConstraint.order_propagation(["status"], "city"),
        ]
        gamma = [ConstantCFD({"status": "s0"}, "city", "c1")]
        spec = Specification.from_rows(schema, rows, sigma, gamma)
        assert not spec.is_valid_brute_force()
        options = ResolverOptions(incremental=incremental, fallback="none")
        result = ConflictResolver(options).resolve(spec, SilentOracle())
        assert not result.valid
        assert [round_report.valid for round_report in result.rounds] == [False]
        assert result.true_values.values == {}


class TestProgramCache:
    @pytest.mark.parametrize("incremental", [True, False])
    def test_entities_of_one_schema_stamp_one_program(self, edith_spec, george_spec, incremental):
        """Both encode paths compile Σ ∪ Γ once and stamp it for every full encode."""
        resolver = ConflictResolver(ResolverOptions(incremental=incremental))
        edith = resolver.resolve(edith_spec, SilentOracle())
        george = resolver.resolve(george_spec, OneShotOracle({"status": "retired"}))
        assert (len(edith.rounds), len(george.rounds)) == (1, 2)
        # The incremental path encodes each entity in full once and extends
        # it by a delta; the cold path re-encodes every round.
        assert resolver.program_cache.statistics() == {
            "programs_compiled": 1,
            "program_cache_hits": 1,
            "program_instantiations": 2 if incremental else 3,
        }
        for result in (edith, george):
            for round_report in result.rounds:
                assert "compiled" not in round_report.encoding_statistics


class TestPhaseTiming:
    """Each round times its encode apart from IsValid (a patched clock makes it exact)."""

    @pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "from_scratch"])
    def test_encoding_is_timed_apart_from_validity(self, george_spec, monkeypatch, incremental):
        clock = [0.0]
        monkeypatch.setattr(framework, "time", SimpleNamespace(perf_counter=lambda: clock[0]))

        def advancing(function, seconds):
            def timed(*args, **kwargs):
                clock[0] += seconds
                return function(*args, **kwargs)

            return timed

        class TimedEncoder(framework.IncrementalEncoder):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                clock[0] += 8.0

            def apply_delta(self, delta):
                clock[0] += 4.0
                return super().apply_delta(delta)

        monkeypatch.setattr(framework, "IncrementalEncoder", TimedEncoder)
        monkeypatch.setattr(framework, "check_validity", advancing(framework.check_validity, 2.0))
        monkeypatch.setattr(framework, "deduce_order", advancing(framework.deduce_order, 1.0))
        monkeypatch.setattr(framework, "suggest", advancing(framework.suggest, 0.5))
        options = ResolverOptions(incremental=incremental)
        result = ConflictResolver(options).resolve(george_spec, OneShotOracle({"status": "retired"}))
        first, second = result.rounds
        phases = ("encode_seconds", "validity_seconds", "deduce_seconds", "suggest_seconds")
        # Round 1 pays the delta on the incremental path, a fresh full encode off it.
        assert [getattr(first, phase) for phase in phases] == [8.0, 2.0, 1.0, 0.5]
        assert [getattr(second, phase) for phase in phases] == [4.0 if incremental else 8.0, 2.0, 1.0, 0.0]
        assert result.total_seconds() == {
            "encode": 12.0 if incremental else 16.0,
            "validity": 4.0,
            "deduce": 2.0,
            "suggest": 0.5,
        }
