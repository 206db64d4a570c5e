"""Unified instrumentation: events, metrics, progress and profiling.

Every search run can be turned into an analyzable artifact.  One
:class:`Instrumentation` object is threaded through every layer that
does work -- the search context, the strategies, the stateless and
explicit-state spaces, the parallel coordinator and workers -- and
fans observations out three ways:

* a typed **event stream** (:mod:`repro.obs.events`) consumed by
  pluggable sinks (:mod:`repro.obs.sinks`): a versioned JSONL log, a
  live terminal progress line, and a final Figure-2-style report;
* **metrics** (:mod:`repro.obs.metrics`): counters, gauges, per-bound
  breakdowns and sampled latency histograms, frozen into a picklable
  :class:`MetricsSnapshot` that merges across parallel workers exactly
  like ``SearchContext.absorb`` folds their shards;
* **phase profiling** (:mod:`repro.obs.profile`): wall time
  partitioned into schedule / execute / fingerprint / race-detect /
  cache-lookup, so benchmarks report *where* time goes.

The whole subsystem is zero-dependency and costs ~nothing when unused:
uninstrumented runs carry ``obs=None`` and pay a single attribute test
per hook site.  See ``docs/observability.md``.
"""

from .events import (
    EVENT_TYPES,
    BoundCompleted,
    BoundStarted,
    BugFound,
    Event,
    EventBus,
    ExecutionFinished,
    ExecutionStarted,
    ObsFormatError,
    RaceChecked,
    SearchFinished,
    SearchStarted,
    Sink,
    StateVisited,
    WorkerHeartbeat,
    event_from_dict,
)
from .history import CoverageRecorder
from .instrument import Instrumentation
from .metrics import Histogram, MetricsRegistry, MetricsSnapshot
from .profile import PHASES, Profiler
from .sinks import (
    FinalReportSink,
    JsonlEventSink,
    LiveProgressSink,
    render_event_summary,
    validate_event_log,
)

__all__ = [
    "EVENT_TYPES",
    "BoundCompleted",
    "BoundStarted",
    "BugFound",
    "CoverageRecorder",
    "Event",
    "EventBus",
    "ExecutionFinished",
    "ExecutionStarted",
    "FinalReportSink",
    "Histogram",
    "Instrumentation",
    "JsonlEventSink",
    "LiveProgressSink",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ObsFormatError",
    "PHASES",
    "Profiler",
    "RaceChecked",
    "SearchFinished",
    "SearchStarted",
    "Sink",
    "StateVisited",
    "WorkerHeartbeat",
    "event_from_dict",
    "render_event_summary",
    "validate_event_log",
]
