"""Committed benchmark results must come from full-mode runs.

A smoke run (``REPRO_BENCH_SMOKE=1``) shrinks its workload to prove the code
path, so its numbers say nothing about performance; the benchmark harness
writes such runs to a temporary directory.  A result marked ``"smoke": true``
under ``benchmarks/results/`` would let a figure quoted from it rest on a
handful of formulas.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
RESULTS = BENCHMARKS / "results"


def test_no_committed_result_is_a_smoke_run():
    paths = sorted(RESULTS.glob("*.json"))
    assert paths, f"no benchmark results under {RESULTS}"
    smoke = [path.name for path in paths if json.loads(path.read_text()).get("smoke") is True]
    assert smoke == [], f"smoke-mode results committed: {smoke}"


@pytest.fixture
def harness(tmp_path, monkeypatch):
    """The benchmark harness, its two output directories moved under *tmp_path*."""
    spec = importlib.util.spec_from_file_location("bench_harness", BENCHMARKS / "_harness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path / "results")
    monkeypatch.setattr(module, "SMOKE_RESULTS_DIR", tmp_path / "smoke")
    return module


@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
def test_harness_writes_smoke_runs_outside_the_results(harness, monkeypatch, capsys, smoke):
    if smoke:
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
    else:
        monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
    harness.report("probe", "table")
    path = harness.report_json("probe", {"smoke": smoke})
    written, untouched = (
        (harness.SMOKE_RESULTS_DIR, harness.RESULTS_DIR)
        if smoke
        else (harness.RESULTS_DIR, harness.SMOKE_RESULTS_DIR)
    )
    assert path == written / "probe.json"
    record = json.loads(path.read_text())
    provenance = record.pop("provenance")
    assert record == {"smoke": smoke}
    assert set(provenance) == {"host", "nproc", "git_sha", "git_dirty", "python"}
    assert (written / "probe.txt").read_text() == "table\n"
    assert not untouched.exists()
    assert "[probe]" in capsys.readouterr().out
