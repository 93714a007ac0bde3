"""End-to-end CLI tests: exit codes, stderr diagnostics and output stability.

These cover the operator-facing contract of ``repro resolve``, ``repro
pipeline`` and ``repro serve``: misuse fails fast with a usage error (exit
code 2) and a clear message — never a traceback from inside the engine — and
the JSONL record schemas are stable (exact key sets), since downstream
tooling parses them.
"""

import csv
import json

import pytest

from repro.cli import main

from tests.conftest import EDITH_ROWS, GEORGE_ROWS


@pytest.fixture
def people_csv(tmp_path):
    path = tmp_path / "people.csv"
    fieldnames = ["name", "status", "job", "kids", "city", "AC", "zip", "county"]
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in EDITH_ROWS + GEORGE_ROWS:
            writer.writerow({key: "" if value is None else value for key, value in row.items()})
    return path


@pytest.fixture
def requests_jsonl(tmp_path):
    path = tmp_path / "requests.jsonl"
    records = []
    for name, rows in (("Edith Shain", EDITH_ROWS), ("George Mendonca", GEORGE_ROWS)):
        records.append(
            json.dumps({"entity": name, "rows": [dict(row) for row in rows]})
        )
    path.write_text("\n".join(records) + "\n")
    return path


class TestUsageErrors:
    """Bad invocations exit with code 2 and a one-line diagnostic on stderr."""

    @pytest.mark.parametrize("command", ["resolve", "pipeline"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_workers_rejected(self, command, workers, people_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(people_csv), "--entity-key", "name", "--workers", workers])
        assert excinfo.value.code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_serve_zero_workers_rejected(self, requests_jsonl, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["serve", "--schema", "name,status", "--input", str(requests_jsonl),
                 "--workers", "0"]
            )
        assert excinfo.value.code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "resolve", "pipeline"])
    def test_missing_input_file_rejected(self, command, tmp_path, capsys):
        missing = tmp_path / "does_not_exist.csv"
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(missing), "--entity-key", "name"])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert "does not exist" in message and str(missing) in message

    def test_serve_missing_input_file_rejected(self, tmp_path, capsys):
        missing = tmp_path / "requests.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--schema", "a,b", "--input", str(missing)])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_missing_constraints_file_rejected(self, people_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["resolve", str(people_csv), "--entity-key", "name",
                 "--constraints", str(tmp_path / "rules.txt")]
            )
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["resolve", "pipeline", "serve"])
    def test_solver_backend_option_is_gone(self, command, people_csv, requests_jsonl, capsys):
        """One solver, no selector: ``--solver-backend`` is refused before any entity resolves."""
        if command == "serve":
            source = ["--schema", "name,status", "--input", str(requests_jsonl)]
        else:
            source = [str(people_csv), "--entity-key", "name"]
        with pytest.raises(SystemExit) as excinfo:
            main([command, *source, "--solver-backend", "dpll", "--entity-timeout", "5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --solver-backend dpll" in capsys.readouterr().err

    def test_serve_tcp_rejects_stdio_flags(self, requests_jsonl, capsys):
        """--tcp would silently ignore the stdio-loop flags; refuse instead."""
        for extra in (["--input", str(requests_jsonl)], ["--checkpoint", "c.ckpt"],
                      ["--resume"], ["-o", "out.jsonl"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", "--schema", "a", "--tcp", "127.0.0.1:0", *extra])
            assert excinfo.value.code == 2
            assert "--tcp cannot be combined" in capsys.readouterr().err

    def test_serve_zero_max_inflight_rejected(self, requests_jsonl, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--schema", "a", "--input", str(requests_jsonl),
                  "--max-inflight", "0"])
        assert excinfo.value.code == 2
        assert "--max-inflight must be >= 1" in capsys.readouterr().err

    def test_resume_without_checkpoint_rejected(self, people_csv, requests_jsonl, capsys):
        """--resume with no checkpoint would silently re-answer everything."""
        with pytest.raises(SystemExit) as excinfo:
            main(["pipeline", str(people_csv), "--entity-key", "name", "--resume"])
        assert excinfo.value.code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--schema", "a", "--input", str(requests_jsonl), "--resume"])
        assert excinfo.value.code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pipeline", "serve"])
    def test_zero_checkpoint_interval_rejected(self, command, people_csv, requests_jsonl, capsys):
        if command == "pipeline":
            argv = ["pipeline", str(people_csv), "--entity-key", "name"]
        else:
            argv = ["serve", "--schema", "a", "--input", str(requests_jsonl)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--checkpoint-every", "0"])
        assert excinfo.value.code == 2
        assert "--checkpoint-every must be >= 1" in capsys.readouterr().err

    def test_serve_bad_tcp_endpoint_rejected(self, requests_jsonl, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["serve", "--schema", "a", "--input", str(requests_jsonl),
                 "--tcp", "not-a-port"]
            )
        assert excinfo.value.code == 2
        assert "invalid --tcp endpoint" in capsys.readouterr().err

    def test_serve_negative_cluster_rejected(self, requests_jsonl, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--schema", "a", "--input", str(requests_jsonl),
                  "--cluster", "-1"])
        assert excinfo.value.code == 2
        assert "--cluster must be >= 1" in capsys.readouterr().err

    def test_serve_cluster_rejects_tcp(self, requests_jsonl, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--schema", "a", "--cluster", "2",
                  "--tcp", "127.0.0.1:0"])
        assert excinfo.value.code == 2
        assert "cannot be combined with --tcp" in capsys.readouterr().err

    def test_serve_cluster_rejects_checkpointing(self, requests_jsonl, tmp_path, capsys):
        checkpoint = tmp_path / "serve.ckpt"
        for extra in (["--checkpoint", str(checkpoint)],
                      ["--checkpoint", str(checkpoint), "--resume"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", "--schema", "a", "--input", str(requests_jsonl),
                      "--cluster", "2", *extra])
            assert excinfo.value.code == 2
            assert "--cluster cannot be combined with --checkpoint" in capsys.readouterr().err

    def test_serve_cluster_rejects_memory_store(self, requests_jsonl, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--schema", "a", "--input", str(requests_jsonl),
                  "--cluster", "2", "--store", ":memory:"])
        assert excinfo.value.code == 2
        assert "':memory:' is per-process" in capsys.readouterr().err


class TestWorkersFlag:
    """``--workers N`` changes how entities are resolved, never the output."""

    @pytest.mark.parametrize("command", ["resolve", "pipeline", "serve"])
    def test_shards_flag_is_gone(self, command, people_csv, requests_jsonl, capsys):
        """Sharding was folded into the worker pool; the old flag fails loudly."""
        if command == "serve":
            argv = ["serve", "--schema", "name,status", "--input", str(requests_jsonl)]
        else:
            argv = [command, str(people_csv), "--entity-key", "name"]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--shards", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --shards" in capsys.readouterr().err

    def test_parallel_pipeline_output_byte_identical(self, people_csv, tmp_path, capsys):
        base = tmp_path / "base.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        argv = ["pipeline", str(people_csv), "--entity-key", "name", "--quiet"]
        assert main([*argv, "--output", str(base)]) == 0
        assert main([*argv, "--output", str(parallel), "--workers", "2"]) == 0
        assert parallel.read_bytes() == base.read_bytes()

    def test_parallel_resolve_output_byte_identical(self, people_csv, tmp_path, capsys):
        base = tmp_path / "base.csv"
        parallel = tmp_path / "parallel.csv"
        argv = ["resolve", str(people_csv), "--entity-key", "name"]
        assert main([*argv, "-o", str(base)]) == 0
        base_stdout = capsys.readouterr().out
        assert main([*argv, "-o", str(parallel), "--workers", "2"]) == 0
        parallel_stdout = capsys.readouterr().out
        assert parallel.read_bytes() == base.read_bytes()
        assert parallel_stdout.replace(str(parallel), str(base)) == base_stdout

    def test_parallel_checkpoint_resumes_without_duplicates(
        self, people_csv, tmp_path, capsys
    ):
        base = tmp_path / "base.jsonl"
        out = tmp_path / "resolved.jsonl"
        checkpoint = tmp_path / "pipeline.ckpt"
        argv = ["pipeline", str(people_csv), "--entity-key", "name", "--quiet"]
        assert main([*argv, "--output", str(base)]) == 0
        parallel = [*argv, "--output", str(out), "--workers", "2",
                    "--checkpoint", str(checkpoint)]
        assert main(parallel) == 0
        assert json.loads(checkpoint.read_text())["processed"] == 2
        capsys.readouterr()
        # Resuming a finished run resolves nothing and appends nothing.
        assert main([*parallel, "--resume"]) == 0
        assert "resuming after 2 already-resolved entities" in capsys.readouterr().out
        assert out.read_bytes() == base.read_bytes()


class TestJsonlSchemaStability:
    """The exact key sets of the JSONL records are a compatibility contract."""

    PIPELINE_KEYS = {"entity", "valid", "complete", "rounds", "resolved"}
    SERVE_KEYS = {"entity", "valid", "complete", "rounds", "resolved"}

    def test_pipeline_record_schema(self, people_csv, tmp_path, capsys):
        out = tmp_path / "resolved.jsonl"
        exit_code = main(
            ["pipeline", str(people_csv), "--entity-key", "name",
             "--output", str(out), "--quiet"]
        )
        assert exit_code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records
        for record in records:
            assert set(record) == self.PIPELINE_KEYS
            assert isinstance(record["resolved"], dict)
            assert isinstance(record["rounds"], int)

    def test_serve_record_schema_and_order(self, requests_jsonl, tmp_path, capsys):
        out = tmp_path / "responses.jsonl"
        exit_code = main(
            ["serve", "--schema", "name,status,job,kids,city,AC,zip,county",
             "--input", str(requests_jsonl), "-o", str(out)]
        )
        assert exit_code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [record["entity"] for record in records] == ["Edith Shain", "George Mendonca"]
        for record in records:
            assert set(record) == self.SERVE_KEYS
        assert "answered 2 requests" in capsys.readouterr().err

    def test_serve_stats_flag_extends_schema(self, requests_jsonl, tmp_path, capsys):
        out = tmp_path / "responses.jsonl"
        exit_code = main(
            ["serve", "--schema", "name,status,job,kids,city,AC,zip,county",
             "--input", str(requests_jsonl), "-o", str(out), "--stats"]
        )
        assert exit_code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        for record in records:
            assert set(record) == self.SERVE_KEYS | {"stats"}
            assert set(record["stats"]) == {"queue_seconds", "resolve_seconds", "engine_reused"}
        # --stats also prints the final server summary (JSON) on stderr.
        err = capsys.readouterr().err
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["completed"] == 2

    def test_serve_checkpoint_resume_round_trip(self, requests_jsonl, tmp_path):
        """Re-running the same input with --resume answers nothing twice."""
        out = tmp_path / "responses.jsonl"
        checkpoint = tmp_path / "serve.ckpt"
        def argv(output, *extra):
            return [
                "serve", "--schema", "name,status,job,kids,city,AC,zip,county",
                "--input", str(requests_jsonl), "-o", str(output),
                "--checkpoint", str(checkpoint), "--checkpoint-every", "1", *extra,
            ]

        assert main(argv(out)) == 0
        first = out.read_text().splitlines()
        assert len(first) == 2
        assert json.loads(checkpoint.read_text())["processed"] == 2
        # Resume against the same input and the SAME output: everything is
        # already answered, and the delivered responses must survive (the
        # resumed run appends instead of truncating).
        assert main(argv(out, "--resume")) == 0
        assert out.read_text().splitlines() == first
        # Resuming into a fresh file answers nothing new either.
        out2 = tmp_path / "responses2.jsonl"
        assert main(argv(out2, "--resume")) == 0
        assert out2.read_text() == ""

    def test_cluster_serve_output_byte_identical(self, requests_jsonl, tmp_path, capsys):
        """``serve --cluster 2`` reproduces the single-server bytes exactly."""
        base = tmp_path / "single.jsonl"
        clustered = tmp_path / "cluster.jsonl"
        argv = ["serve", "--schema", "name,status,job,kids,city,AC,zip,county",
                "--input", str(requests_jsonl)]
        assert main([*argv, "-o", str(base)]) == 0
        capsys.readouterr()
        assert main([*argv, "-o", str(clustered), "--cluster", "2"]) == 0
        assert clustered.read_bytes() == base.read_bytes()
        assert "answered 2 requests" in capsys.readouterr().err

    def test_cluster_stats_summary_on_stderr(self, requests_jsonl, tmp_path, capsys):
        out = tmp_path / "responses.jsonl"
        assert main(
            ["serve", "--schema", "name,status,job,kids,city,AC,zip,county",
             "--input", str(requests_jsonl), "-o", str(out),
             "--cluster", "2", "--stats"]
        ) == 0
        err = capsys.readouterr().err
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["workers"] == 2
        assert summary["routed"] == 2
        assert summary["quarantine"] == []
        assert sum(shard["entities"] for shard in summary["shards"]) == 2

    def test_resolve_and_serve_agree(self, people_csv, requests_jsonl, tmp_path, capsys):
        """The batch CSV path and the serving path deduce the same values."""
        csv_out = tmp_path / "resolved.csv"
        assert main(
            ["resolve", str(people_csv), "--entity-key", "name", "-o", str(csv_out)]
        ) == 0
        with csv_out.open() as handle:
            batch = {row["__entity__"]: row for row in csv.DictReader(handle)}
        serve_out = tmp_path / "responses.jsonl"
        assert main(
            ["serve", "--schema", "name,status,job,kids,city,AC,zip,county",
             "--input", str(requests_jsonl), "-o", str(serve_out)]
        ) == 0
        served = {
            record["entity"]: record
            for record in map(json.loads, serve_out.read_text().splitlines())
        }
        assert set(served) == set(batch)
        for entity, record in served.items():
            for attribute, value in record["resolved"].items():
                if value is not None:
                    assert str(value) == batch[entity][attribute]
