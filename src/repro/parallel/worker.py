"""The worker process of the parallel exploration engine.

Each worker owns a private :class:`~repro.core.transition.ProgramStateSpace`
(its own live execution, replayed on demand) and loops over shard
tasks from the coordinator's task queue.  For every work item it runs
the *serial* ICB item exploration --
:meth:`~repro.search.icb.IterativeContextBounding._search_item` -- so
the parallel engine explores, transition for transition, exactly the
executions the serial engine would; only the partitioning of the
frontier differs.

Workers communicate exclusively through the result queue:

* ``("claim", worker_id, shard_id)`` -- announces which shard this
  worker is processing, so the coordinator can requeue it if the
  worker dies;
* ``("progress", worker_id, exec_delta, trans_delta)`` -- periodic
  counters letting the coordinator enforce *global* execution and
  transition budgets across the pool;
* ``("bug", worker_id, report)`` -- streamed immediately on discovery
  (deduplicated coordinator-side, so resending after a retry is safe);
* ``("done", worker_id, shard_id, outcome)`` -- the shard's final
  :class:`~repro.parallel.workitem.ShardOutcome`, which the coordinator
  folds into the run's live context with ``SearchContext.absorb``.

Budgets are honored cooperatively: the serial budget check enforces
the pool's wall-clock budget, the context polls the
coordinator-broadcast stop event every :data:`POLL_STRIDE` checks, and
either unwinds with ``SearchBudgetExceeded``, which marks the shard
(and therefore the bound and the whole run) incomplete.
"""

from __future__ import annotations

import os
import queue
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Any, List, Optional

from ..core.execution import ExecutionConfig
from ..core.program import Program
from ..core.transition import ProgramStateSpace
from ..errors import BugReport, SearchBudgetExceeded, SearchInterrupted
from ..obs.instrument import Instrumentation
from ..search.icb import IterativeContextBounding
from ..search.strategy import SearchContext, SearchLimits
from .workitem import Pair, ShardOutcome, ShardTask

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .coordinator import ParallelSettings

#: Result-queue message tags (kept as constants so coordinator and
#: worker cannot drift apart silently).
MSG_CLAIM = "claim"
MSG_PROGRESS = "progress"
MSG_BUG = "bug"
MSG_DONE = "done"

#: Task-queue sentinel telling a worker to exit its loop.
STOP_TASK = "stop"

#: How many budget checks pass between polls of the coordinator's stop
#: event and the parent process; each poll also streams the progress
#: deltas that drive the pool's global budgets and heartbeats.
POLL_STRIDE = 256


class WorkerContext(SearchContext):
    """A :class:`SearchContext` wired into the coordinator's queues.

    It differs from the serial context in three ways only:

    * ``stop_on_first_bug`` never raises locally -- the bound barrier
      is what preserves the minimal-preemption guarantee, so the
      coordinator stops the pool at the end of the bound instead;
    * the time budget counts from the pool's ``started_at``, not the
      shard's (monotonic clocks are system-wide on the supported
      platforms), so every worker times out together at the
      coordinator's deadline, and the serial budget check words the
      stop;
    * every :data:`POLL_STRIDE` budget checks it polls the coordinator's
      stop event and the parent process and streams its execution and
      transition deltas for global budget accounting.
    """

    def __init__(
        self,
        limits: SearchLimits,
        worker_id: int,
        stop_event: Any,
        result_queue: Any,
        started_at: float,
        parent_pid: int,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        super().__init__(replace(limits, stop_on_first_bug=False), obs=obs)
        self.started_at = started_at
        self.worker_id = worker_id
        self.stop_event = stop_event
        self.result_queue = result_queue
        self.parent_pid = parent_pid
        # Zero polls at the first check, so even a short shard sees a
        # stop the coordinator broadcast before it started.
        self._poll_countdown = 0
        self._reported_executions = 0
        self._reported_transitions = 0

    # -- cooperative budgets -------------------------------------------------

    def _check_budget(self) -> None:
        super()._check_budget()
        self._poll_countdown -= 1
        if self._poll_countdown < 0:
            self._poll_countdown = POLL_STRIDE - 1
            if self.stop_event.is_set():
                raise SearchBudgetExceeded("coordinator stop")
            if os.getppid() != self.parent_pid:
                # The coordinator died without cleanup (SIGKILL): this
                # worker was reparented.  Stop exploring instead of
                # grinding on as an orphan; the resumed coordinator
                # re-dispatches the shard from its checkpoint journal.
                raise SearchBudgetExceeded("coordinator process vanished")
            self.flush_progress()

    def flush_progress(self) -> None:
        """Stream execution/transition deltas to the coordinator."""
        exec_delta = self.executions - self._reported_executions
        trans_delta = self.transitions - self._reported_transitions
        if exec_delta or trans_delta:
            self.result_queue.put(
                (MSG_PROGRESS, self.worker_id, exec_delta, trans_delta)
            )
            self._reported_executions = self.executions
            self._reported_transitions = self.transitions

    # -- bug streaming -------------------------------------------------------

    def note_bug(self, bug: BugReport) -> bool:
        kept = super().note_bug(bug)
        if kept:
            # New defect, or a better (fewer-preemption) witness.
            self.result_queue.put((MSG_BUG, self.worker_id, bug))
        return kept

    # -- shipping ------------------------------------------------------------

    def snapshot(self) -> SearchContext:
        """A queue-free copy safe to pickle back to the coordinator."""
        ctx = SearchContext(self.limits)
        ctx.absorb(self)
        return ctx


def explore_shard(
    space: ProgramStateSpace,
    task: ShardTask,
    ctx: WorkerContext,
) -> ShardOutcome:
    """Explore every item of ``task`` within the current bound.

    Uses the serial ICB item loop verbatim, so a shard's exploration
    is indistinguishable from the same items being drained by the
    serial engine.  The shard starts from whatever execution ``space``
    holds live (the previous shard's last one): every item is a
    schedule prefix the engine restores or replays from there, and the
    coordinator's context already records the initial state.  Stops
    early (``completed=False``) only when a budget or the
    coordinator's stop event fires.
    """

    icb = IterativeContextBounding()
    deferred: List[Pair] = []
    completed, reason = True, "shard exhausted"
    for item in task.items:
        try:
            icb._search_item(space, ctx, item, deferred, None)  # type: ignore[arg-type]
        except (SearchBudgetExceeded, SearchInterrupted) as exc:
            completed, reason = False, str(exc)
            break
    ctx.flush_progress()
    return ShardOutcome(
        shard_id=task.shard_id,
        completed=completed,
        stop_reason=reason,
        context=ctx.snapshot(),
        deferred=tuple(deferred),
        metrics=ctx.obs.snapshot() if ctx.obs is not None else None,
    )


def worker_main(
    worker_id: int,
    program: Program,
    config: Optional[ExecutionConfig],
    task_queue: Any,
    result_queue: Any,
    stop_event: Any,
    limits: SearchLimits,
    started_at: float,
    settings: "ParallelSettings",
    collect_metrics: bool = False,
    profiling: bool = False,
) -> None:
    """Entry point of one worker process.

    The worker builds one :class:`ProgramStateSpace` and keeps its live
    execution across shards.  ``settings`` carries the targeted
    fault-injection hook of the robustness tests: any worker claiming
    shard ``settings.fault_crash_shard`` dies hard (``os._exit``, as a
    segfault in the program under test would kill it) while
    ``task.attempt`` is below ``settings.fault_crash_attempts``, so a
    shard can kill several workers in a row before a retry survives.
    ``collect_metrics`` ships one metrics snapshot per shard;
    ``profiling`` times every phase, as the coordinator's
    instrumentation does, and the snapshot carries the phase table back.
    """

    parent_pid = os.getppid()
    space = ProgramStateSpace(program, config)
    while True:
        try:
            task = task_queue.get(timeout=0.2)
        except queue.Empty:
            if stop_event.is_set():
                break
            if os.getppid() != parent_pid:
                # Reparented: the coordinator is gone and nobody will
                # ever send STOP_TASK.  Exit instead of idling forever.
                break
            continue
        if task == STOP_TASK:
            break
        assert isinstance(task, ShardTask)
        result_queue.put((MSG_CLAIM, worker_id, task.shard_id))
        if (
            task.shard_id == settings.fault_crash_shard
            and task.attempt < settings.fault_crash_attempts
        ):
            # Give the queue's feeder thread a moment to flush the
            # claim, then die without any cleanup.
            time.sleep(0.2)
            os._exit(17)
        obs: Optional[Instrumentation] = None
        if collect_metrics:
            # One fresh Instrumentation per task: its snapshot ships in
            # the ShardOutcome, so cross-task aggregation happens
            # coordinator-side and double counting is impossible.
            obs = Instrumentation(profiling=profiling)
            obs.current_bound = task.bound
            space.attach_obs(obs)
        ctx = WorkerContext(
            limits, worker_id, stop_event, result_queue, started_at, parent_pid, obs
        )
        outcome = explore_shard(space, task, ctx)
        if collect_metrics:
            space.attach_obs(None)
        result_queue.put((MSG_DONE, worker_id, task.shard_id, outcome))
