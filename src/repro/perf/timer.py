"""Timing primitives for the perf harness.

Wall-clock measurement on a laptop/CI box is noisy; the helpers here follow
the standard microbenchmark playbook: warm up once, repeat the measurement a
few times, and report the *best* observation (the run least disturbed by the
OS scheduler / allocator), plus the raw repeats so the JSON artifact keeps
the evidence.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List


class BenchTimer:
    """Context-manager stopwatch: ``with BenchTimer() as t: ...; t.seconds``."""

    __slots__ = ("seconds", "_start")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "BenchTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._start


def measure_seconds(
    fn: Callable[[], object], repeats: int = 3, warmup: bool = True
) -> Dict[str, object]:
    """Run ``fn`` ``repeats`` times; report best/mean wall-clock seconds."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup:
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        with BenchTimer() as timer:
            fn()
        samples.append(timer.seconds)
    return {
        "best_seconds": min(samples),
        "mean_seconds": sum(samples) / len(samples),
        "repeats": samples,
    }


def measure_rates_interleaved(
    fns: Dict[str, Callable[[], int]], repeats: int = 3, warmup: bool = True
) -> Dict[str, float]:
    """Best ops/second for several runners, measured **interleaved**.

    Live A/B benchmarks that time one side to completion and then the other
    are exposed to slow machine drift (thermal/cgroup throttling, a noisy
    neighbour starting mid-run) landing entirely on one side.  Interleaving
    the repeats round-robin places both sides in every drift window, so the
    best-of-N ratio stays honest on noisy single-core runners.

    Each timed run starts from a collected heap.  Without that, the garbage
    one side leaves behind is collected, and paid for, inside the next
    side's timed run, and the bill grows with everything else the process
    holds: the ``group_by`` ratio read about 1.0 under ``repro bench`` but
    1.4 in a bare interpreter.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup:
        for fn in fns.values():
            fn()
    best: Dict[str, float] = {name: 0.0 for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            gc.collect()
            with BenchTimer() as timer:
                count = fn()
            if timer.seconds > 0 and count > 0:
                rate = count / timer.seconds
                if rate > best[name]:
                    best[name] = rate
    if any(rate <= 0 for rate in best.values()):
        raise RuntimeError("benchmark produced no measurable work")
    return best


def measure_rate(
    fn: Callable[[], int], repeats: int = 3, warmup: bool = True
) -> Dict[str, object]:
    """Run ``fn`` (which returns an operation count); report best ops/second."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup:
        fn()
    rates: List[float] = []
    for _ in range(repeats):
        with BenchTimer() as timer:
            count = fn()
        if timer.seconds <= 0 or count <= 0:
            continue
        rates.append(count / timer.seconds)
    if not rates:
        raise RuntimeError("benchmark produced no measurable work")
    return {
        "best_ops_per_second": max(rates),
        "mean_ops_per_second": sum(rates) / len(rates),
        "repeats": rates,
    }
