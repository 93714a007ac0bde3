"""Checkpoint/resume round-trips: pipeline level and CLI level."""

import csv
import json

import pytest

from repro.api import ResolutionClient, RunConfig
from repro.datasets import PersonConfig, generate_person_dataset, stream_person_dataset
from repro.evaluation import ExperimentResult, MetricsSink, ScoreStage
from tests.conftest import run_client_experiment
from repro.evaluation.interaction import ReluctantOracle
from repro.pipeline import Checkpoint, CheckpointSink, Pipeline, skip_items
from repro.resolution import ResolverOptions


class TestCheckpointFile:
    def test_save_load_round_trip(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "state.json")
        assert not checkpoint.exists()
        assert checkpoint.load() is None
        checkpoint.save(7, {"counts": 3})
        assert checkpoint.exists()
        assert checkpoint.load() == {
            "processed": 7,
            "state": {"counts": 3},
            "quarantine": [],
        }
        checkpoint.clear()
        assert checkpoint.load() is None

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            Checkpoint(path).load()

    def test_skip_items(self):
        assert list(skip_items(range(5), 2)) == [2, 3, 4]
        assert list(skip_items(range(2), 5)) == []


def _experiment_pipeline(dataset_stream, result, checkpoint, skip, every=2):
    """Manual composition of the framework experiment with checkpointing."""
    options = ResolverOptions(max_rounds=1, fallback="none")

    def oracle_for(entity, _spec):
        return ReluctantOracle(entity, max_rounds=1)

    pairs = skip_items(dataset_stream.specifications(), skip)
    with ResolutionClient(RunConfig(options=options)) as client:
        Pipeline(
            pairs,
            [client.resolve_stage(oracle_for), ScoreStage(dataset_stream.schema)],
            [
                MetricsSink(result),
                CheckpointSink(
                    checkpoint, every=every, state_provider=result.state_dict, offset=skip
                ),
            ],
        ).run()


def _comparable(state):
    """Checkpoint state minus wall-clock (not replayable) and the run label."""
    return {key: value for key, value in state.items() if key not in ("phase_seconds", "label")}


class TestExperimentResume:
    def test_interrupted_run_resumes_to_identical_metrics(self, tmp_path):
        config = PersonConfig(num_entities=7, seed=11)
        reference = run_client_experiment(
            generate_person_dataset(config), max_interaction_rounds=1
        )

        checkpoint = Checkpoint(tmp_path / "exp.json")

        # First run: only the first 4 entities arrive, then the "crash".
        interrupted = ExperimentResult(label="run", keep_outcomes=False)
        partial = stream_person_dataset(PersonConfig(num_entities=7, seed=11))
        partial.entities = (e for i, e in enumerate(partial.entities) if i < 4)
        _experiment_pipeline(partial, interrupted, checkpoint, skip=0)
        saved = checkpoint.load()
        assert saved["processed"] == 4

        # Resume: restore the folded state, skip the processed prefix.
        resumed = ExperimentResult(label="run", keep_outcomes=False)
        resumed.load_state_dict(saved["state"])
        _experiment_pipeline(
            stream_person_dataset(PersonConfig(num_entities=7, seed=11)),
            resumed,
            checkpoint,
            skip=saved["processed"],
        )

        assert checkpoint.load()["processed"] == 7
        assert resumed.entities == reference.entities == 7
        assert resumed.counts() == reference.counts()
        assert resumed.f_measure == reference.f_measure
        assert resumed.true_value_fraction_by_round(3) == reference.true_value_fraction_by_round(3)
        assert _comparable(resumed.state_dict()) == _comparable(reference.state_dict())

    def test_mid_interval_progress_is_not_lost_at_close(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "exp.json")
        result = ExperimentResult(label="run", keep_outcomes=False)
        stream = stream_person_dataset(PersonConfig(num_entities=3, seed=11))
        _experiment_pipeline(stream, result, checkpoint, skip=0, every=100)
        # 3 < every, but close() persists the final position anyway.
        assert checkpoint.load()["processed"] == 3


PIPELINE_CONSTRAINTS = """
currency: t1.status = 'working' & t2.status = 'retired' -> t1 < t2 on status
currency: t1.kids < t2.kids -> t1 < t2 on kids
cfd: AC=213 -> city='LA'
"""


@pytest.fixture
def raw_csv(tmp_path):
    path = tmp_path / "people.csv"
    fieldnames = ["name", "status", "kids", "city", "AC"]
    rows = [
        {"name": "ann", "status": "working", "kids": 1, "city": "LA", "AC": 213},
        {"name": "ann", "status": "retired", "kids": 2, "city": "", "AC": 213},
        {"name": "bob", "status": "working", "kids": 0, "city": "NY", "AC": 212},
        {"name": "bob", "status": "retired", "kids": 1, "city": "NY", "AC": 212},
        {"name": "cyd", "status": "working", "kids": 3, "city": "LA", "AC": 213},
    ]
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    constraints = tmp_path / "rules.txt"
    constraints.write_text(PIPELINE_CONSTRAINTS)
    return path, constraints


class TestPipelineCommandResume:
    def test_cli_checkpoint_resume_skips_done_entities(self, raw_csv, tmp_path, capsys):
        from repro.cli import main

        data, constraints = raw_csv
        output = tmp_path / "out.jsonl"
        checkpoint = tmp_path / "ck.json"
        base = [
            "pipeline", str(data), "--entity-key", "name", "--constraints", str(constraints),
            "--output", str(output), "--checkpoint", str(checkpoint), "--quiet",
        ]
        assert main(base) == 0
        first = output.read_text().splitlines()
        assert len(first) == 3
        assert json.loads(checkpoint.read_text())["processed"] == 3

        # Resuming a finished run is a no-op that appends nothing.
        assert main(base + ["--resume"]) == 0
        assert output.read_text().splitlines() == first
        assert "resuming after 3" in capsys.readouterr().out

        # A fresh run from a partial checkpoint completes the remainder.
        Checkpoint(checkpoint).save(1)
        output.unlink()
        output.write_text(first[0] + "\n")
        assert main(base + ["--resume"]) == 0
        resumed = output.read_text().splitlines()
        assert resumed == first

    def test_resume_trims_output_ahead_of_checkpoint(self, raw_csv, tmp_path):
        """A crash between checkpoint saves leaves the JSONL ahead of the
        checkpointed position; the resumed run must not duplicate records."""
        from repro.cli import main

        data, constraints = raw_csv
        output = tmp_path / "out.jsonl"
        checkpoint = tmp_path / "ck.json"
        base = [
            "pipeline", str(data), "--entity-key", "name", "--constraints", str(constraints),
            "--output", str(output), "--checkpoint", str(checkpoint), "--quiet",
        ]
        assert main(base) == 0
        first = output.read_text().splitlines()
        assert len(first) == 3

        # Simulate the crash: all 3 records flushed, checkpoint only at 1.
        Checkpoint(checkpoint).save(1)
        assert main(base + ["--resume"]) == 0
        resumed = output.read_text().splitlines()
        assert resumed == first  # entities 2-3 re-resolved once, not appended twice
