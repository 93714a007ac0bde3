"""The perf trajectory names every end-to-end metric of the repo benchmark.

``BENCH_trajectory.json`` at the repository root keeps one row per measured
change and workload: the parent commit it was measured against, the seeds,
and for the parent and the change the median and interquartile range of
each end-to-end metric over alternating runs.  A row that leaves a metric
out can hide the one that got worse, so every row must name each metric
``BENCHMARK.json`` lists under ``end_to_end``, for both sides.
"""

import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
ROWS = json.loads((ROOT / "BENCH_trajectory.json").read_text())["rows"]


def test_the_trajectory_has_rows():
    assert ROWS


@pytest.mark.parametrize("row", ROWS, ids=[f"{row['sha'][:7]}-{row['workload']}" for row in ROWS])
def test_every_row_names_each_end_to_end_metric(row):
    assert row["workload"] in WORKLOADS
    assert len(row["sha"]) == 40 and int(row["sha"], 16) >= 0
    assert row["seeds"] and all(isinstance(seed, int) for seed in row["seeds"])
    for side in ("parent", "change"):
        figures = row[side]["metrics"]
        missing = [name for name in END_TO_END if name not in figures]
        assert missing == [], f"{side} lacks {missing}"
        for name in END_TO_END:
            assert set(figures[name]) == {"median", "iqr"}, name
            assert all(isinstance(figures[name][key], Real) for key in ("median", "iqr")), name
