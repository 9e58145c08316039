"""The observability plane: tracing, metrics, logging, flight recording.

``repro.obs`` is the dependency-free subsystem every other layer reports
into.  It never *drives* execution — nothing here consumes randomness,
schedules work, or mutates engine state — so enabling any of it cannot
perturb the 45-metric matrix: a traced run is bit-identical to an
untraced one.

Inside one process, four modules record what happened:

- :mod:`repro.obs.trace` — structured spans on a monotonic clock,
  exported as Chrome-trace JSON (``chrome://tracing`` / Perfetto).
  Disabled by default: the ambient tracer is ``None`` and the
  :func:`~repro.obs.trace.span` helper returns a shared null context,
  so instrumented code pays one ``ContextVar.get`` when tracing is off.
- :mod:`repro.obs.metrics` — counters, gauges and histograms in a
  process-wide registry, rendered in Prometheus text exposition format
  by ``GET /metrics`` and as JSON by ``GET /stats``.
- :mod:`repro.obs.log` — stdlib ``logging`` configured with a
  ``key=value`` (or JSON) formatter; the CLI's ``--log-level`` /
  ``--log-json`` flags land here.
- :mod:`repro.obs.flight` — a bounded ring buffer of recent
  span/fault/job events, attached to characterizations (store schema
  v4) and job snapshots so "why was this run slow" is answerable from
  the persisted artifact alone.

:mod:`repro.obs.timeline` samples a workload's runtime and PMU state
over time.  :mod:`repro.obs.stats` carries the timing/percentile helpers
of perfbench and the slow overhead tests.  :mod:`repro.obs.prof` is a statistical
stack sampler whose samples are attributed to the live span path, plus
the profile-document functions (merge, collapsed stacks, attribution).
:mod:`repro.obs.fleet` extends the plane across *processes*: one
:class:`~repro.obs.fleet.TelemetryAgent` per process writes its metric
shard, trace spill and profile spills into the shared store directory,
and the same module reads them back, collects the stale ones and
merges them into one fleet-wide ``/metrics`` exposition, ``/fleet``
status view, multi-lane Chrome trace and fleet profile
(``GET /profile``, ``repro profile``).  :mod:`repro.obs.ledger` keeps
the perf ledger ``perfbench/run.py`` appends to.
"""

from repro.obs.fleet import TelemetryAgent, fleet_status, merge_traces, read_live
from repro.obs.flight import FlightRecorder, current_flight, flight_recording, record
from repro.obs.prof import Profiler
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Tracer, current_tracer, span, tracing

__all__ = [
    "TelemetryAgent",
    "Profiler",
    "fleet_status",
    "merge_traces",
    "read_live",
    "Tracer",
    "current_tracer",
    "span",
    "tracing",
    "REGISTRY",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "configure_logging",
    "get_logger",
    "FlightRecorder",
    "current_flight",
    "flight_recording",
    "record",
]
