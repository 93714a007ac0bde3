"""Per-layer diff of two traced runs: which layer a change moved, and by how much.

    python3 perfbench/diff.py BEFORE.json AFTER.json

Each file is a traced run's record (``.perfbench-out/<workload>-seed<n>-trace1.json``)
or a saved standard output of a ``--trace 1`` run (its last line is read).
Self times print first, largest change in seconds first, each with its share
of the summed self-time change; counts and ratios follow, largest relative
change first.  Layers that did not change are left out.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple


def load(path: str) -> Dict[str, float]:
    """Per-layer values of one traced run."""
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    payload = json.loads(lines[-1])
    if "per_layer" in payload:
        return {name: float(value) for name, value in payload["per_layer"].items()}
    return {name: float(entry["value"]) for name, entry in payload["metrics"].items()}


def rows(before: Dict[str, float], after: Dict[str, float]) -> Tuple[List[tuple], List[tuple]]:
    """(name, before, after) rows that changed: self times, then the rest."""
    times, others = [], []
    for name in sorted(set(before) | set(after)):
        old, new = before.get(name, 0.0), after.get(name, 0.0)
        if old == new:
            continue
        is_time = name.endswith("_s") and not name.startswith("trace.")
        (times if is_time else others).append((name, old, new))
    times.sort(key=lambda row: -abs(row[2] - row[1]))
    others.sort(key=lambda row: -abs(row[2] - row[1]) / max(abs(row[1]), 1e-12))
    return times, others


def _relative(old: float, new: float) -> str:
    return f"{(new - old) / old:+.1%}" if old else "new"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    times, others = rows(load(args[0]), load(args[1]))
    total = sum(new - old for _, old, new in times)
    print(f"{'self time':32} {'before s':>10} {'after s':>10} {'change s':>10} {'rel':>8} {'share':>7}")
    for name, old, new in times:
        share = f"{(new - old) / total:.0%}" if total else "-"
        print(f"{name:32} {old:10.4f} {new:10.4f} {new - old:+10.4f} {_relative(old, new):>8} {share:>7}")
    print(f"{'summed self time':32} {'':10} {'':10} {total:+10.4f}")
    print()
    print(f"{'count or ratio':32} {'before':>12} {'after':>12} {'rel':>8}")
    for name, old, new in others:
        print(f"{name:32} {old:12.4f} {new:12.4f} {_relative(old, new):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
