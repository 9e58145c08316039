"""Timing and percentile helpers for measurements.

``perfbench/run.py`` reports latency percentiles with
:func:`percentile`; the slow-marked overhead and throughput tests
(``tests/obs/test_trace.py``, ``tests/obs/test_timeline.py``,
``tests/cluster/test_collection_parallel.py``,
``tests/service/test_supervisor.py``) time their runs with
:class:`Stopwatch` and :func:`best_of`.

Standard library only — no numpy, so the obs layer stays importable
everywhere.
"""

from __future__ import annotations

import math
import time

__all__ = ["Stopwatch", "best_of", "percentile"]


class Stopwatch:
    """A context-manager wall clock::

        with Stopwatch() as sw:
            do_work()
        print(sw.seconds)
    """

    def __init__(self) -> None:
        self._start_ns = 0
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = (time.perf_counter_ns() - self._start_ns) / 1e9


def best_of(fn, trials: int) -> float:
    """Minimum wall time of ``fn()`` over ``trials`` runs (microbenchmark
    convention: the best trial is the least-noisy estimate)."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    best = math.inf
    for _ in range(trials):
        with Stopwatch() as sw:
            fn()
        best = min(best, sw.seconds)
    return best


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks.

    Matches ``numpy.percentile(values, q * 100)`` for the default linear
    interpolation, without requiring numpy.

    Raises:
        ValueError: On an empty sample or ``q`` outside [0, 1].
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return float(ordered[lower])
    fraction = rank - lower
    return float(ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction)
