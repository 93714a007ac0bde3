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


@pytest.fixture
def fault_recovery(monkeypatch):
    """``bench_fault_recovery``, importable with the benchmarks directory on the path."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(
        "bench_fault_recovery", BENCHMARKS / "bench_fault_recovery.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fault_recovery_compares_only_the_recorded_workload(fault_recovery):
    """The no-fault wall is compared only with a recorded run of the same workload, measured the same way.

    A smoke run (2 entities on 2 workers) is not compared with the recorded
    11 on 4, and this benchmark's fresh engine per repeat is not compared
    with a recorded best on one warm engine.
    """
    recorded = fault_recovery._recorded_baseline()
    assert recorded is not None
    entities, workers = recorded["entities"], recorded["workers"]
    smoke = fault_recovery.no_fault_comparison(0.01, 2, 2, recorded)
    assert smoke["overhead_vs_recorded_pct"] is None
    assert smoke["within_2pct_of_recorded"] is None
    assert "different workload" in smoke["not_compared_because"]
    warm = dict(recorded, fresh_engine_per_repeat=False)
    unlike = fault_recovery.no_fault_comparison(recorded["wall_seconds"] * 0.5, entities, workers, warm)
    assert unlike["overhead_vs_recorded_pct"] is None
    assert unlike["within_2pct_of_recorded"] is None
    assert "warm engine" in unlike["not_compared_because"]
    fresh = dict(recorded, fresh_engine_per_repeat=True)
    same = fault_recovery.no_fault_comparison(recorded["wall_seconds"], entities, workers, fresh)
    assert same["overhead_vs_recorded_pct"] == 0.0
    assert same["within_2pct_of_recorded"] is True
    assert same["not_compared_because"] is None
    committed = json.loads((RESULTS / "fault_recovery.json").read_text())
    no_fault = committed["no_fault"]
    if no_fault["overhead_vs_recorded_pct"] is not None:
        assert recorded.get("fresh_engine_per_repeat")
        assert (committed["entities"], committed["workers"]) == (
            no_fault["recorded_fig8c_entities"],
            no_fault["recorded_fig8c_workers"],
        )
    else:
        assert no_fault["within_2pct_of_recorded"] is None
        assert no_fault["not_compared_because"]


def test_fault_recovery_records_every_repeat_of_both_arms():
    """Both arms keep each repeat's wall, so the overhead can be read against its spread."""
    payload = json.loads((RESULTS / "fault_recovery.json").read_text())
    repeats = int(payload["repeats"])
    assert repeats >= 3
    for arm in ("no_fault", "worker_killed"):
        walls = payload[arm]["repeat_walls_seconds"]
        assert len(walls) == repeats
        assert all(wall > 0 for wall in walls)
        assert payload[arm]["wall_seconds"] == min(walls)
