"""Perf regression guard for compiled instantiation.

A coarse, generously-thresholded check that the fast path actually buys time:
compiled stamping has measured 3–5× faster than the cold object-path
analysis (the reference in ``_instantiate_reference.py``), so the floor
below stays far inside the measured margin while still failing CI if a
refactor silently reroutes the path onto a slow implementation (best-of-N
timing keeps it robust to slow or noisy hosts).
"""

import time

from repro.encoding import InstantiationOptions, compile_program, instantiate_compiled

from tests.encoding._instantiate_reference import reference_instantiate

#: Compiled stamping must be at least this many times faster than the cold path.
GENEROUS_SPEEDUP_FLOOR = 1.2

REPEATS = 3


def _best_of(repeats, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_compiled_instantiate_beats_cold_on_nba(small_nba_dataset):
    options = InstantiationOptions()
    specs = [spec for _, spec in small_nba_dataset.specifications(limit=5)]
    program = compile_program(specs[0], options)
    # Warm both paths once (allocator, caches) before timing.
    for spec in specs:
        reference_instantiate(spec, options)
        instantiate_compiled(spec, program)

    cold = _best_of(REPEATS, lambda: [reference_instantiate(spec, options) for spec in specs])
    compiled = _best_of(REPEATS, lambda: [instantiate_compiled(spec, program) for spec in specs])
    assert compiled > 0.0
    speedup = cold / compiled
    assert speedup >= GENEROUS_SPEEDUP_FLOOR, (
        f"compiled instantiate speedup degraded to {speedup:.2f}x "
        f"(cold {cold * 1000:.1f} ms vs compiled {compiled * 1000:.1f} ms over {len(specs)} entities)"
    )
