"""repro: iterative context bounding for systematic testing of
multithreaded programs.

A faithful, self-contained reproduction of Musuvathi & Qadeer,
*Iterative Context Bounding for Systematic Testing of Multithreaded
Programs* (PLDI 2007) -- the CHESS paper.

Quickstart::

    from repro import ChessChecker, Program, check

    def setup(w):
        balance = w.var("balance", 0)
        lock = w.mutex("lock")

        def deposit():
            v = yield balance.read()       # racy read-modify-write
            yield balance.write(v + 10)

        def audit():
            yield lock.acquire()
            v = yield balance.read()
            check(v % 10 == 0, "balance must be a multiple of 10")
            yield lock.release()

        return {"deposit1": deposit, "deposit2": deposit, "audit": audit}

    bug = ChessChecker(Program("bank", setup)).find_bug()
    print(bug.describe())   # minimal-preemption witness schedule

Package layout:

* :mod:`repro.core` -- the controlled concurrency runtime.
* :mod:`repro.search` -- ICB and the baseline strategies.
* :mod:`repro.races` -- happens-before tracking and race detection.
* :mod:`repro.monitors` -- pluggable per-execution property monitors.
* :mod:`repro.chess` -- the stateless checker facade.
* :mod:`repro.zing` -- the explicit-state checker and its modeling
  framework.
* :mod:`repro.theory` -- the combinatorial bounds of Theorem 1.
* :mod:`repro.programs` -- the paper's benchmark programs.
* :mod:`repro.trace` -- persistent witness traces: deterministic
  replay, schedule minimization, and the bug-corpus regression runner.
* :mod:`repro.obs` -- opt-in instrumentation: event stream, metrics,
  live progress, phase profiling (see ``docs/observability.md``).
* :mod:`repro.service` -- the durable checking service: search
  checkpoint/resume, the content-addressed result cache and the
  crash-safe job queue behind ``repro serve`` (see
  ``docs/service.md``).
* :mod:`repro.experiments` -- drivers regenerating every table and
  figure of the evaluation.
* :mod:`repro.invivo` -- real ``threading`` code under the checker
  (see ``docs/invivo.md``); :mod:`repro.analysis` lints its plain
  shared state by watching a bounded search of it.  Neither is
  imported by ``import repro``.
"""

from .chess.checker import CheckResult, ChessChecker
from .core.effects import Effect, EffectKind, alloc, join, sched_yield, spawn
from .core.execution import (
    Execution,
    ExecutionConfig,
    RaceDetection,
    SchedulingPolicy,
    StepRecord,
)
from .core.program import Program, check
from .core.thread import ThreadHandle, ThreadId
from .core.transition import ProgramStateSpace, StateSpace
from .core.world import World
from .errors import BugKind, BugReport, ReproError, ScheduleMismatch
from .monitors.monitor import FinalStateMonitor, InvariantMonitor, Monitor, monitor_factory
from .obs import Instrumentation, MetricsSnapshot
from .parallel import ParallelCoordinator, ParallelSettings
from .service import (
    Checkpoint,
    CheckpointError,
    CheckpointMismatch,
    Checkpointer,
    CheckingService,
    JobQueue,
    ResultCache,
)
from .trace import (
    MinimizationResult,
    ReplayOutcome,
    ReplayReport,
    TraceCorpus,
    TraceFormatError,
    TraceRecord,
    minimize_trace,
    replay_trace,
)
from .search import (
    CheckPlan,
    DepthFirstSearch,
    EnabledThreadsHeuristic,
    IterativeContextBounding,
    IterativeDeepening,
    PCTScheduler,
    PlanError,
    RandomWalk,
    SearchContext,
    SearchLimits,
    SearchResult,
    SleepSetDFS,
    Strategy,
)

__version__ = "1.0.0"

__all__ = [
    "BugKind",
    "BugReport",
    "CheckPlan",
    "CheckResult",
    "CheckingService",
    "Checkpoint",
    "CheckpointError",
    "CheckpointMismatch",
    "Checkpointer",
    "ChessChecker",
    "DepthFirstSearch",
    "Effect",
    "EffectKind",
    "EnabledThreadsHeuristic",
    "Execution",
    "ExecutionConfig",
    "FinalStateMonitor",
    "Instrumentation",
    "InvariantMonitor",
    "IterativeContextBounding",
    "IterativeDeepening",
    "JobQueue",
    "MetricsSnapshot",
    "MinimizationResult",
    "Monitor",
    "PCTScheduler",
    "ParallelCoordinator",
    "ParallelSettings",
    "PlanError",
    "Program",
    "ProgramStateSpace",
    "RaceDetection",
    "RandomWalk",
    "ReplayOutcome",
    "ReplayReport",
    "ReproError",
    "ResultCache",
    "ScheduleMismatch",
    "SchedulingPolicy",
    "SearchContext",
    "SearchLimits",
    "SearchResult",
    "SleepSetDFS",
    "StateSpace",
    "StepRecord",
    "Strategy",
    "ThreadHandle",
    "ThreadId",
    "TraceCorpus",
    "TraceFormatError",
    "TraceRecord",
    "World",
    "alloc",
    "check",
    "join",
    "minimize_trace",
    "monitor_factory",
    "replay_trace",
    "sched_yield",
    "spawn",
]
