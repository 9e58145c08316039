"""Layer spans recorded from outside the program.

The benchmark attributes a traced run's time to the repository's layers
by wrapping the public functions each layer exposes to the one above it
(the functions ``Cluster._measure`` and ``subset_workloads`` call, looked
up where those callers look them up).  Nothing inside ``src/`` changes:
:func:`install` swaps the attributes for timing wrappers for the length
of a ``with`` block and then puts the originals back.

Each layer is charged its *self* time: a span's duration minus the time
its child spans cover, so nested layers are never counted twice.
Datagen runs inside ``Workload.run``, and the stacks layer's busy time
is the run's self time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = [
    "LayerClock", "install", "compute_layers", "store_layers", "PIPELINE_LAYERS",
]

#: The per-layer self times of a traced pipeline.  Together they should
#: account for its whole wall time; what they miss is time in no layer.
PIPELINE_LAYERS = (
    "datagen.busy_s",
    "stacks.busy_s",
    "stacks.instrument_s",
    "arch.plan_s",
    "arch.simulate_s",
    "perf.profile_s",
    "metrics.derive_s",
    "cluster.self_s",
    "core.pca_s",
    "core.linkage_s",
    "core.bic_s",
    "core.representatives_s",
    "subset.select_s",
)


class LayerClock:
    """Per-layer self time and work counters.

    Single-threaded by design: the benchmark's traced runs call the
    layers from one thread, and a span stack shared across threads
    would mis-nest.
    """

    def __init__(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # One frame per open span: [layer, child seconds].
        self._stack: list[list] = []

    @contextmanager
    def span(self, layer: str):
        frame = [layer, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.self_time[layer] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount


def _stack_of(workload) -> str:
    """The engine a suite workload runs on: the interactive (SQL)
    workloads run on Hive or Shark, the rest on Hadoop or Spark."""
    from repro.workloads.base import Category, StackFamily

    sql = workload.category is Category.INTERACTIVE_ANALYTICS
    if workload.family is StackFamily.HADOOP:
        return "hive" if sql else "hadoop"
    return "shark" if sql else "spark"


def _timed(clock: LayerClock, layer: str, func, after=None):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with clock.span(layer):
            result = func(*args, **kwargs)
        if after is not None:
            after(clock, args, kwargs, result)
        return result

    return wrapper


def _workload_run(clock: LayerClock, func):
    @functools.wraps(func)
    def wrapper(workload, *args, **kwargs):
        start = time.perf_counter()
        with clock.span("stacks"):
            run = func(workload, *args, **kwargs)
        clock.count(f"stacks.{_stack_of(workload)}_s", time.perf_counter() - start)
        clock.count("stacks.phases", len(run.trace.committed_records))
        return run

    return wrapper


def _count_sim_ops(clock, args, kwargs, result) -> None:
    plan = kwargs.get("plan")
    if plan is None:
        raise RuntimeError(
            "Processor.run_workload ran without a plan: the traced path "
            "no longer matches Cluster._measure"
        )
    clock.count(
        "arch.sim_ops",
        sum(
            sample.n_ops
            for phase in plan
            for sample in phase.warmups + phase.measured
        ),
    )


def compute_layers(clock: LayerClock) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper factory) for the compute layers."""
    import repro.cluster.testbed as testbed
    import repro.core.subsetting as subsetting
    from repro.arch.processor import Processor
    from repro.datagen import Bdgs
    from repro.perf.profiler import PerfProfiler
    from repro.workloads.base import Workload

    targets = [
        (Workload, "run", lambda f: _workload_run(clock, f)),
        (testbed, "profiles_from_trace",
         lambda f: _timed(clock, "stacks.instrument", f)),
        (testbed, "plan_workload", lambda f: _timed(clock, "arch.plan", f)),
        (Processor, "run_workload",
         lambda f: _timed(clock, "arch.simulate", f, _count_sim_ops)),
        (PerfProfiler, "profile", lambda f: _timed(clock, "perf.profile", f)),
        (testbed, "derive_metrics", lambda f: _timed(clock, "metrics.derive", f)),
        (subsetting, "fit_pca", lambda f: _timed(clock, "core.pca", f)),
        (subsetting, "hierarchical_clustering",
         lambda f: _timed(clock, "core.linkage", f)),
        (subsetting, "choose_k", lambda f: _timed(clock, "core.bic", f)),
        (subsetting, "select_representatives",
         lambda f: _timed(clock, "core.representatives", f)),
        (subsetting, "kiviat_diagrams",
         lambda f: _timed(clock, "core.representatives", f)),
    ]
    for name, value in vars(Bdgs).items():
        if callable(value) and not name.startswith("_"):
            targets.append(
                (Bdgs, name, lambda f: _timed(clock, "datagen", f))
            )
    return targets


def store_layers(clock: LayerClock) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper factory) for the store's write calls."""
    from repro.service.store import ResultStore

    return [
        (ResultStore, name, lambda f: _timed(clock, "service.store.write", f))
        for name in ("put", "put_object", "adopt")
    ]


@contextmanager
def install(clock: LayerClock, *groups):
    """Wrap every target of ``groups`` (functions like
    :func:`compute_layers`) for the duration of the block."""
    originals = []
    try:
        for group in groups:
            for owner, attr, factory in group(clock):
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, factory(original))
        yield clock
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
