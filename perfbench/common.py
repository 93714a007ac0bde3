"""Pieces every workload uses: the run context, its outcome, timing helpers."""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Items the host probe's task groups, about a millisecond of work.
PROBE_STEPS = 1500
#: Thread CPU seconds the probe's task takes on an idle 2-vCPU Xeon host
#: under CPython 3; the host speed every reported timing is scaled to.
PROBE_REFERENCE_S = 0.0008


@dataclass
class Context:
    """What one benchmark invocation was asked to do."""

    seed: int
    #: Length of the measured window: ``--seconds``, which is meant to be
    #: ``BENCHMARK.json``'s ``run_seconds`` on every run.
    seconds: float
    #: Private working directory of this run (removed when the run ends).
    work: Path


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: End-to-end metric values of the untraced run.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metric values of the traced run (``--trace 1`` only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Input properties the workload's behaviour depends on.
    properties: Dict[str, Any] = field(default_factory=dict)
    #: Phase detail worth keeping next to the numbers.
    details: Dict[str, Any] = field(default_factory=dict)
    #: Correctness-check failures; any entry fails the run.
    problems: List[str] = field(default_factory=list)


def p50_p95_ms(samples: Sequence[float]) -> Tuple[float, float]:
    """Median and 95th percentile of *samples* (seconds), in milliseconds."""
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[49] * 1000.0, cuts[94] * 1000.0


def _probe_task() -> int:
    """A fixed piece of interpreter work that calls no program code.

    It allocates, groups and sorts small containers, as the resolver does:
    of the probes tried against resolution passes on a busy host, this
    kind followed the passes' slowdowns most closely, and a tight loop over
    a small table least.
    """
    groups: Dict[int, List[Tuple[str, List[int]]]] = {}
    for index in range(PROBE_STEPS):
        groups.setdefault(index % 97, []).append((str(index), [index, index + 1]))
    return sum(len(sorted(members)) for members in groups.values())


class HostProbe:
    """How fast the host runs Python at the moment, sampled between units of work.

    Other tenants of a shared host slow every process on it, for seconds to
    minutes at a time; measured the same way, one run's timings can read
    twice the next one's.  :meth:`sample`, called in the measuring thread
    between units of measured work, times :func:`_probe_task` in thread CPU
    time.  A unit's seconds divided by :meth:`factor` over its span are its
    seconds at the host speed of :data:`PROBE_REFERENCE_S`.  The probe calls
    no program code, so a change to the program moves the scaled timings as
    it moves the raw ones.  It runs in the measuring thread because the
    host can slow one vCPU and not the other: a probe thread running beside
    the work followed the work's slowdowns far less closely.
    """

    #: Fewest seconds between two probes.
    INTERVAL = 0.1
    #: Fewest probes a factor is read from: about a second and a half.
    NEAR = 15

    def __init__(self) -> None:
        #: perf_counter() when each probe ended, and its seconds, in order.
        self.ends: List[float] = []
        self.seconds: List[float] = []

    def sample(self) -> None:
        """Probe, unless the last probe ended under :data:`INTERVAL` ago."""
        if self.ends and time.perf_counter() - self.ends[-1] < self.INTERVAL:
            return
        # Untimed first: the caches hold the program's data, and a cold
        # probe would read that work's footprint as well.
        _probe_task()
        start = time.thread_time()
        _probe_task()
        self.seconds.append(time.thread_time() - start)
        self.ends.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """Host slowness from *start* to *end* (perf_counter): 1 at the reference speed.

        Read from the probes taken in that span, widened to the
        :data:`NEAR` probes around its middle when it holds fewer.
        """
        count = len(self.seconds)
        low, high = bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)
        if high - low < self.NEAR:
            low = max(0, min((low + high - self.NEAR) // 2, count - self.NEAR))
            high = low + self.NEAR
        return statistics.median(self.seconds[low:high]) / PROBE_REFERENCE_S


def _rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:  # the process ended between listing and reading
        pass
    return 0


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def tree_rss_kib(root: int) -> int:
    """Summed resident set of *root* and all its live descendants."""
    total, pending = 0, [root]
    while pending:
        pid = pending.pop()
        total += _rss_kib(pid)
        pending.extend(_children(pid))
    return total


class RssSampler:
    """Peak of :func:`tree_rss_kib` for this process, sampled on a thread.

    Child processes (the serving cluster's workers) count while they are
    alive, so the figure is the peak memory of the whole process tree.
    """

    INTERVAL = 0.05

    def __init__(self) -> None:
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_kib = max(self.peak_kib, tree_rss_kib(os.getpid()))
            self._stop.wait(self.INTERVAL)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_kib = max(self.peak_kib, tree_rss_kib(os.getpid()))

    @property
    def peak_mb(self) -> float:
        return self.peak_kib / 1024.0
