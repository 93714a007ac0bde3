"""Tests for the experiment harness (the client runner)."""

import pytest

from repro.core import ReproError

from tests.conftest import run_client_baseline, run_client_experiment


class TestFrameworkExperiment:
    def test_runs_over_all_entities(self, small_person_dataset):
        result = run_client_experiment(small_person_dataset, max_interaction_rounds=0)
        assert len(result.outcomes) == len(small_person_dataset.entities)
        assert 0.0 <= result.f_measure <= 1.0
        assert result.counts().conflicting > 0

    def test_limit_restricts_entities(self, small_person_dataset):
        result = run_client_experiment(small_person_dataset, max_interaction_rounds=0, limit=3)
        assert len(result.outcomes) == 3

    def test_interaction_improves_coverage(self, small_person_dataset):
        automatic = run_client_experiment(small_person_dataset, max_interaction_rounds=0)
        interactive = run_client_experiment(small_person_dataset, max_interaction_rounds=3)
        auto_fraction = automatic.true_value_fraction_by_round(0)[0]
        final_fraction = interactive.true_value_fraction_by_round(3)[-1]
        assert final_fraction >= auto_fraction

    def test_fraction_by_round_is_monotone(self, small_nba_dataset):
        result = run_client_experiment(small_nba_dataset, max_interaction_rounds=2)
        series = result.true_value_fraction_by_round(2)
        assert all(later >= earlier - 1e-9 for earlier, later in zip(series, series[1:]))
        assert all(0.0 <= value <= 1.0 for value in series)

    def test_constraint_fractions_change_accuracy(self, small_person_dataset):
        nothing = run_client_experiment(
            small_person_dataset, sigma_fraction=0.0, gamma_fraction=0.0, max_interaction_rounds=0
        )
        everything = run_client_experiment(small_person_dataset, max_interaction_rounds=0)
        assert everything.counts().deduced >= nothing.counts().deduced

    def test_timings_and_summary_are_reported(self, small_career_dataset):
        result = run_client_experiment(small_career_dataset, max_interaction_rounds=1, limit=4)
        assert result.mean_seconds("total") > 0.0
        summary = result.summary()
        assert set(summary) == {
            "entities", "precision", "recall", "f_measure", "mean_total_seconds", "max_rounds",
        }
        assert summary["entities"] == 4.0

    def test_label_defaults_are_informative(self, small_person_dataset):
        result = run_client_experiment(small_person_dataset, limit=1)
        assert "Person" in result.label


class TestBaselineExperiment:
    @pytest.mark.parametrize("method", ["pick", "vote", "min", "max", "any"])
    def test_all_baselines_run(self, small_person_dataset, method):
        result = run_client_baseline(small_person_dataset, method, limit=4)
        assert len(result.outcomes) == 4
        assert 0.0 <= result.f_measure <= 1.0

    def test_unknown_baseline_rejected(self, small_person_dataset):
        with pytest.raises(ReproError):
            run_client_baseline(small_person_dataset, "magic")

    def test_framework_beats_pick_on_person(self, small_person_dataset):
        framework = run_client_experiment(small_person_dataset, max_interaction_rounds=2)
        pick = run_client_baseline(small_person_dataset, "pick")
        assert framework.f_measure > pick.f_measure

    def test_repetitions_average_randomised_baselines(self, small_person_dataset):
        single = run_client_baseline(small_person_dataset, "pick", repetitions=1, limit=3)
        averaged = run_client_baseline(small_person_dataset, "pick", repetitions=5, limit=3)
        assert len(single.outcomes) == len(averaged.outcomes)
