"""Run one benchmark workload and print its result as the last output line.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout (the directory holding ``src/repro``).
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` repeats the measurement with the layer wrappers of
``layers.py`` installed and prints the per-layer metrics instead.  The
seed makes the inputs; the program only ever sees the generated inputs.

Next to the result line, a record with the workload's input properties,
why it was chosen, provenance (host, nproc, git sha, Python, seed), phase
detail and, for traced runs, every span goes to
``.perfbench-out/<workload>-seed<seed>-trace<0|1>.json``.  A failed
correctness check prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

ROOT = Path.cwd()
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("batch", "serve", "cdc")


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60)
    return done.stdout.strip() if done.returncode == 0 else ""


def provenance(seed: int) -> Dict[str, Any]:
    """Where and on what the numbers were measured."""
    sha, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        try:
            sha = _git("rev-parse", "HEAD") or sha
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "seed": seed,
    }


def _metric_block(values: Dict[str, float], declared) -> Dict[str, Dict[str, Any]]:
    """The declared metrics with their units; a layer the run did not use reads 0."""
    return {entry["name"]: {"value": values.get(entry["name"], 0.0), "unit": entry["unit"]} for entry in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from the root of a checkout", file=sys.stderr)
        return 2
    # Metric names, units and each workload's reason live in BENCHMARK.json.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    sys.path.insert(0, str(ROOT / "src"))
    from common import Context, RssSampler
    from layers import Tracer

    workload = importlib.import_module(args.workload)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        with RssSampler() as rss:
            outcome = workload.run(Context(args.seed, args.seconds, work), tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome.metrics["peak_rss_mb"] = rss.peak_mb

    if outcome.attempted < 1:
        outcome.problems.append("no unit of work was attempted")
    if outcome.failed:
        outcome.problems.append(f"{outcome.failed} of {outcome.attempted} attempts carried an error or failure marker")
    for name in (entry["name"] for entry in spec["end_to_end"]):
        value = outcome.metrics.get(name)
        if value is None or not math.isfinite(value) or value <= 0:
            outcome.problems.append(f"end-to-end metric {name} is {value!r}, expected a positive number")
    correct = not outcome.problems

    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": correct,
        "problems": outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "properties": outcome.properties,
        "provenance": provenance(args.seed),
        "end_to_end": outcome.metrics,
        "per_layer": outcome.layers,
        "missing_targets": tracer.missing if tracer else [],
        "details": outcome.details,
        "spans": tracer.span_records() if tracer else [],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, default=str))

    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if tracer and tracer.missing:
        print(f"trace targets missing: {', '.join(tracer.missing)}", file=sys.stderr)
    if not correct:
        metrics: Dict[str, Any] = {}
    elif args.trace:
        metrics = _metric_block(outcome.layers, spec["per_layer"])
    else:
        metrics = _metric_block(outcome.metrics, spec["end_to_end"])
    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
