"""The :class:`Instrumentation` facade threaded through the checkers.

One object per run bundles the three observability backends -- event
bus, metrics registry, phase profiler -- behind small hook methods the
instrumented layers call.  The contract with the hot path:

* uninstrumented runs pass ``obs=None`` everywhere, and every hook
  site guards with ``if obs is not None`` -- a single attribute test,
  no allocation, no call;
* with instrumentation on but no sinks subscribed, hooks update the
  metrics dicts and never construct an event (``bus.active`` is
  checked before allocating);
* full phase timing (two clock reads per hooked call) only happens
  with ``profiling=True``.

The per-bound breakdowns maintained here mirror ``SearchContext``
exactly: ``states_by_bound`` tracks each state's *minimal* reaching
preemption count, including the re-bucketing when a later visit
reaches a known state with fewer preemptions, so a snapshot's counts
can be asserted equal to the context's (the acceptance check in
``tests/obs``).
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Optional

from .events import (
    AnalysisCompleted,
    BoundCompleted,
    BoundStarted,
    BugFound,
    CacheSyncApplied,
    CheckpointResumed,
    CheckpointSaved,
    EventBus,
    HttpRequestServed,
    LeaseRenewed,
    LeaseTakeover,
    ExecutionFinished,
    ExecutionStarted,
    InvivoRun,
    RaceChecked,
    ResultCacheServed,
    SearchFinished,
    SearchStarted,
    StateVisited,
    WorkerHeartbeat,
)
from .metrics import Histogram, MetricsRegistry, MetricsSnapshot
from .profile import Profiler

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..analysis import ProgramAnalysis
    from ..errors import BugReport


class _PhaseHook:
    """One instrumented call site: optional exact phase timing plus an
    optional stride-sampled latency histogram.

    ``start`` reads the clock only under profiling or on every
    ``stride``-th call, and returns 0.0 otherwise, making the common
    case one decrement and one test.  ``stop(0.0)`` does nothing, so
    hot call sites skip the call when ``start`` returned 0.0.  Under
    profiling the span is billed its own time only (see
    :class:`Profiler`); a hook's spans never nest in each other, so one
    mark per hook suffices.  The histogram is an unbiased sample of
    per-call latency, not a total."""

    __slots__ = ("phase", "hist", "stride", "profiler", "_n", "_mark")

    def __init__(
        self,
        phase: str,
        hist: Optional[Histogram],
        profiler: Optional[Profiler],
        stride: int = 64,
    ) -> None:
        self.phase = phase
        self.hist = hist
        self.profiler = profiler
        # Under profiling every call is timed; a hook with neither a
        # profiler nor a histogram never is.
        self.stride: float = 1 if profiler is not None else max(1, stride)
        if profiler is None and hist is None:
            self.stride = math.inf
        #: Calls left until the next timed one.
        self._n = self.stride
        self._mark = 0.0

    def start(self) -> float:
        self._n -= 1
        if self._n:
            return 0.0
        self._n = self.stride
        if self.profiler is not None:
            self._mark = self.profiler.total
        return time.perf_counter()

    def stop(self, t0: float) -> None:
        if not t0:
            return
        elapsed = time.perf_counter() - t0
        if self.profiler is not None:
            self.profiler.add_span(self.phase, elapsed, self._mark)
        if self.hist is not None:
            # Under profiling every call is timed anyway, so the
            # histogram upgrades from sampled to exhaustive.
            self.hist.record(elapsed)

class Instrumentation:
    """Event bus + metrics + profiler for one search run."""

    def __init__(
        self,
        bus: Optional[EventBus] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiling: bool = False,
        sample_stride: int = 64,
    ) -> None:
        self.bus = bus or EventBus()
        self.metrics = metrics or MetricsRegistry()
        self.profiling = profiling
        self.profile = Profiler()
        #: The strategy's current iteration bound (ICB preemption
        #: bound, IDDFS depth); keys ``executions_by_bound``.
        self.current_bound = 0
        self._t0 = time.perf_counter()
        self._in_execution = False
        profiler = self.profile if profiling else None
        registry = self.metrics
        self.hook_schedule = _PhaseHook("schedule", None, profiler)
        self.hook_execute = _PhaseHook(
            "execute", registry.histogram("execute_latency"), profiler, sample_stride
        )
        self.hook_replay = _PhaseHook("replay", None, profiler)
        self.hook_fingerprint = _PhaseHook(
            "fingerprint", registry.histogram("fingerprint_latency"), profiler, sample_stride
        )
        self.hook_race = _PhaseHook(
            "race-detect", registry.histogram("race_check_latency"), profiler, sample_stride
        )
        self.hook_cache = _PhaseHook("cache-lookup", None, profiler)
        self.hook_analysis = _PhaseHook("analysis", None, profiler)

    def now(self) -> float:
        """Seconds since this instrumentation was armed."""
        return time.perf_counter() - self._t0

    # -- run lifecycle -----------------------------------------------------

    def search_started(self, strategy: str, program: str) -> None:
        self.metrics.add("searches")
        if self.bus.active:
            self.bus.emit(SearchStarted(self.now(), strategy, program))

    def search_finished(
        self,
        strategy: str,
        completed: bool,
        stop_reason: str,
        executions: int,
        transitions: int,
        states: int,
        bugs: int,
    ) -> None:
        self._in_execution = False
        if self.bus.active:
            self.bus.emit(
                SearchFinished(
                    self.now(),
                    strategy,
                    completed,
                    stop_reason,
                    executions,
                    transitions,
                    states,
                    bugs,
                )
            )

    def bound_started(self, bound: int, frontier: int) -> None:
        self.current_bound = bound
        self.metrics.set_gauge("current_bound", float(bound))
        if self.bus.active:
            self.bus.emit(BoundStarted(self.now(), bound, frontier))

    def bound_completed(self, bound: int, executions: int, states: int) -> None:
        self.metrics.set_gauge("completed_bound", float(bound))
        if self.bus.active:
            self.bus.emit(BoundCompleted(self.now(), bound, executions, states))

    # -- hot-path hooks (called by SearchContext) --------------------------

    def transition_observed(
        self, preemptions: int, prior: Optional[int], states: int
    ) -> None:
        """One ``visit``: ``prior`` is the state's previously recorded
        minimal preemption bucket (``None`` for a new state)."""
        registry = self.metrics
        registry.counters["transitions"] = registry.counters.get("transitions", 0) + 1
        if not self._in_execution:
            self._in_execution = True
            if self.bus.active:
                self.bus.emit(
                    ExecutionStarted(
                        self.now(), registry.counters.get("executions", 0) + 1
                    )
                )
        if prior is None:
            self.state_discovered(preemptions, states)
        elif preemptions < prior:
            # Known state reached more cheaply: move it to the lower
            # bucket, exactly as SearchContext.states does.
            buckets = registry.states_by_bound
            buckets[prior] -= 1
            buckets[preemptions] = buckets.get(preemptions, 0) + 1

    def state_discovered(self, preemptions: int, states: int) -> None:
        registry = self.metrics
        registry.counters["distinct_states"] = (
            registry.counters.get("distinct_states", 0) + 1
        )
        buckets = registry.states_by_bound
        buckets[preemptions] = buckets.get(preemptions, 0) + 1
        if self.bus.active:
            self.bus.emit(StateVisited(self.now(), states, preemptions))

    def execution_finished(self, index: int, states: int) -> None:
        registry = self.metrics
        registry.counters["executions"] = registry.counters.get("executions", 0) + 1
        bound = self.current_bound
        registry.executions_by_bound[bound] = (
            registry.executions_by_bound.get(bound, 0) + 1
        )
        if self.bus.active:
            if not self._in_execution:
                # Zero-transition execution (e.g. a terminal initial
                # state): synthesize the start so pairs always match.
                self.bus.emit(ExecutionStarted(self.now(), index))
            self.bus.emit(ExecutionFinished(self.now(), index, states))
        self._in_execution = False

    def bug_found(self, bug: "BugReport", new: bool) -> None:
        if new:
            self.metrics.add("bugs_found")
        if self.bus.active:
            self.bus.emit(
                BugFound(
                    self.now(),
                    bug_kind=bug.kind.value,
                    message=bug.message,
                    preemptions=bug.preemptions,
                    new=new,
                )
            )

    def analysis_completed(self, analysis: "ProgramAnalysis") -> None:
        """Milestone: the pre-search static analysis pass finished."""
        self.metrics.add("analyses")
        summary = analysis.summary
        top = [t for t in summary.threads if t.top]
        if top:
            # A TOP fallback is never silent: the count is a counter
            # and the reasons travel on the event.
            self.metrics.add("analysis_top_threads", len(top))
        if self.bus.active:
            self.bus.emit(
                AnalysisCompleted(
                    self.now(),
                    program=summary.program,
                    threads=len(summary.threads),
                    top_threads=len(top),
                    proven_local=len(analysis.proven_local),
                    candidates=len(analysis.candidates),
                    findings=len(analysis.findings),
                    top_reasons="; ".join(
                        f"{t.label}: {t.top_reason}" for t in top
                    ),
                )
            )

    # -- space-level hooks -------------------------------------------------

    def race_checked(self, races: int, t0: float = 0.0) -> None:
        """One data access checked; ``t0`` is ``hook_race.start()``'s."""
        if t0:
            self.hook_race.stop(t0)
        registry = self.metrics
        registry.counters["race_checks"] = registry.counters.get("race_checks", 0) + 1
        if races:
            registry.add("races_found", races)
            if self.bus.active:
                self.bus.emit(RaceChecked(self.now(), races))

    def replayed(self, replays: int, steps: int, restore_steps: int) -> None:
        """Reaching a state: ``replays`` rebuilds from scratch and
        ``steps`` re-executed steps; a restore (``restore_steps`` > 0)
        rebuilt that many of them without the engine."""
        counters = self.metrics.counters
        counters["replays"] = counters.get("replays", 0) + replays
        counters["replay_steps"] = counters.get("replay_steps", 0) + steps
        if restore_steps:
            counters["restores"] = counters.get("restores", 0) + 1
            counters["restore_steps"] = counters.get("restore_steps", 0) + restore_steps

    def cache_lookup(self, hit: bool) -> None:
        registry = self.metrics
        registry.counters["cache_lookups"] = (
            registry.counters.get("cache_lookups", 0) + 1
        )
        if hit:
            registry.counters["cache_hits"] = registry.counters.get("cache_hits", 0) + 1

    # -- parallel-engine hooks ---------------------------------------------

    def worker_heartbeat(self, worker: int, executions: int, transitions: int) -> None:
        self.metrics.add("worker_heartbeats")
        if self.bus.active:
            self.bus.emit(WorkerHeartbeat(self.now(), worker, executions, transitions))

    # -- durability hooks (see repro.service) -------------------------------

    def checkpoint_saved(
        self, sequence: int, bound: int, frontier: int, deferred: int, executions: int
    ) -> None:
        self.metrics.add("checkpoints_saved")
        if self.bus.active:
            self.bus.emit(
                CheckpointSaved(
                    self.now(), sequence, bound, frontier, deferred, executions
                )
            )

    def checkpoint_resumed(
        self, sequence: int, bound: int, executions: int, transitions: int
    ) -> None:
        self.metrics.add("checkpoint_resumes")
        if self.bus.active:
            self.bus.emit(
                CheckpointResumed(self.now(), sequence, bound, executions, transitions)
            )

    def cache_served(self, key: str, program: str) -> None:
        self.metrics.add("result_cache_hits")
        if self.bus.active:
            self.bus.emit(ResultCacheServed(self.now(), key, program))

    # -- fleet hooks (see repro.net) -----------------------------------------

    def http_request(self, method: str, path: str, status: int) -> None:
        """The HTTP front-end answered one request."""
        self.metrics.add("http_requests")
        if self.bus.active:
            self.bus.emit(HttpRequestServed(self.now(), method, path, status))

    def lease_claimed(self, job: str, fence: int) -> None:
        self.metrics.add("lease_claims")

    def lease_renewed(self, job: str, fence: int) -> None:
        self.metrics.add("lease_renewals")
        if self.bus.active:
            self.bus.emit(LeaseRenewed(self.now(), job, fence))

    def lease_takeover(self, job: str, fence: int, prior_owner: str) -> None:
        """A peer's expired lease was broken; its job requeued."""
        self.metrics.add("lease_takeovers")
        if self.bus.active:
            self.bus.emit(LeaseTakeover(self.now(), job, fence, prior_owner))

    def cache_sync_hit(self, key: str, source: str, kind: str = "result") -> None:
        """A cache entry or trace was pulled from a peer daemon."""
        self.metrics.add("cache_sync_hits")
        if self.bus.active:
            self.bus.emit(CacheSyncApplied(self.now(), key, source, kind))

    # -- in-vivo hooks (see repro.invivo) -------------------------------------

    def invivo_run(
        self, program: str, threads: int, handshakes: int, abandoned: int
    ) -> None:
        """A checking run over an in-vivo program finished; totals are
        cumulative over the program object's executions."""
        registry = self.metrics
        registry.add("invivo_runs")
        registry.set_gauge("invivo_threads", float(threads))
        registry.set_gauge("invivo_handshakes", float(handshakes))
        registry.set_gauge("invivo_abandoned", float(abandoned))
        if self.bus.active:
            self.bus.emit(
                InvivoRun(self.now(), program, threads, handshakes, abandoned)
            )

    # -- freezing ----------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the metrics (with phase timings when profiling)."""
        return self.metrics.snapshot(profile=self.profile if self.profiling else None)

    def close(self) -> None:
        """Close every subscribed sink."""
        self.bus.close()
