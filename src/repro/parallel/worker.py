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

Budgets are honored cooperatively: the context checks the
coordinator-broadcast stop event and the shared wall-clock deadline
every few transitions and unwinds with ``SearchBudgetExceeded``, which
marks the shard (and therefore the bound and the whole run) incomplete.
"""

from __future__ import annotations

import os
import queue
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Any, List, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..analysis import ProgramAnalysis

from ..core.execution import ExecutionConfig
from ..core.program import Program
from ..core.transition import ProgramStateSpace
from ..errors import BugReport, SearchBudgetExceeded, SearchInterrupted
from ..obs.instrument import Instrumentation
from ..search.icb import IterativeContextBounding
from ..search.strategy import SearchContext, SearchLimits
from .workitem import Pair, ShardOutcome, ShardTask

#: Result-queue message tags (kept as constants so coordinator and
#: worker cannot drift apart silently).
MSG_CLAIM = "claim"
MSG_PROGRESS = "progress"
MSG_BUG = "bug"
MSG_DONE = "done"

#: Task-queue sentinel telling a worker to exit its loop.
STOP_TASK = "stop"

#: How many budget checks pass between polls of the coordinator's
#: stop event, the shared deadline and the parent process.
STOP_CHECK_INTERVAL = 64


class WorkerContext(SearchContext):
    """A :class:`SearchContext` wired into the coordinator's queues.

    Differences from the serial context:

    * ``stop_on_first_bug`` never raises locally -- the bound barrier
      is what preserves the minimal-preemption guarantee, so the
      coordinator stops the pool at the end of the bound instead;
    * wall-clock budgets use a *shared* absolute deadline (monotonic
      clocks are system-wide on the supported platforms), so every
      worker times out together;
    * the coordinator's stop event is polled every
      :data:`STOP_CHECK_INTERVAL` budget checks;
    * executions/transitions are streamed as deltas every
      ``progress_interval`` transitions for global budget accounting.
    """

    def __init__(
        self,
        limits: SearchLimits,
        worker_id: int,
        stop_event: Any,
        result_queue: Any,
        deadline: Optional[float],
        progress_interval: int = 256,
        obs: Optional[Instrumentation] = None,
        parent_pid: Optional[int] = None,
    ) -> None:
        super().__init__(
            replace(limits, stop_on_first_bug=False, max_seconds=None), obs=obs
        )
        self.worker_id = worker_id
        self.stop_event = stop_event
        self.result_queue = result_queue
        self.deadline = deadline
        self.progress_interval = max(1, progress_interval)
        self.parent_pid = parent_pid
        self._checks = 0
        self._reported_executions = 0
        self._reported_transitions = 0

    # -- cooperative budgets -------------------------------------------------

    def _check_budget(self) -> None:
        super()._check_budget()
        self._checks += 1
        if self._checks % STOP_CHECK_INTERVAL == 0:
            if self.stop_event.is_set():
                raise SearchBudgetExceeded("coordinator stop")
            if self.deadline is not None and time.monotonic() >= self.deadline:
                raise SearchBudgetExceeded("time budget reached")
            if self.parent_pid is not None and os.getppid() != self.parent_pid:
                # The coordinator died without cleanup (SIGKILL): this
                # worker was reparented.  Stop exploring instead of
                # grinding on as an orphan; the resumed coordinator
                # re-dispatches the shard from its checkpoint journal.
                raise SearchBudgetExceeded("coordinator process vanished")
        if self.transitions - self._reported_transitions >= self.progress_interval:
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

    Uses the serial ICB item loop verbatim (including the static
    analysis reduction when the space carries an analysis), so a
    shard's exploration is indistinguishable from the same items being
    drained by the serial engine.  Stops early (``completed=False``)
    only when a budget or the coordinator's stop event fires.
    """

    icb = IterativeContextBounding()
    prune = space.analysis_prunable if space.analysis is not None else None
    deferred: List[Pair] = []
    completed, reason = True, "shard exhausted"
    ctx.record_initial(space, space.initial_state())
    for item in task.items:
        try:
            icb._search_item(space, ctx, item, deferred, None, prune)  # type: ignore[arg-type]
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
    analysis: Optional["ProgramAnalysis"],
    task_queue: Any,
    result_queue: Any,
    stop_event: Any,
    limits: SearchLimits,
    deadline: Optional[float],
    progress_interval: int,
    crash_on_first_claim: bool = False,
    collect_metrics: bool = False,
    fault_crash_shard: Optional[int] = None,
    fault_crash_attempts: int = 0,
) -> None:
    """Entry point of one worker process.

    ``crash_on_first_claim`` is a fault-injection hook used by the
    robustness tests: the worker claims its first shard and then dies
    hard (``os._exit``), exactly like a segfault in the program under
    test would kill a real worker.  ``fault_crash_shard`` /
    ``fault_crash_attempts`` are the targeted variant: *any* worker
    claiming that shard dies while ``task.attempt`` is below the
    attempt threshold, so a shard can be made to kill several workers
    in a row (the worker-killed-twice path) before one survives.
    """

    parent_pid = os.getppid()
    space = ProgramStateSpace(program, config, analysis=analysis)
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
        crash = crash_on_first_claim or (
            fault_crash_shard is not None
            and task.shard_id == fault_crash_shard
            and task.attempt < fault_crash_attempts
        )
        if crash:
            # Give the queue's feeder thread a moment to flush the
            # claim, then die without any cleanup.
            time.sleep(0.2)
            os._exit(17)
        obs: Optional[Instrumentation] = None
        if collect_metrics:
            # One fresh Instrumentation per task: its snapshot ships in
            # the ShardOutcome, so cross-task aggregation happens
            # coordinator-side and double counting is impossible.
            obs = Instrumentation()
            obs.current_bound = task.bound
            space.attach_obs(obs)
        ctx = WorkerContext(
            limits,
            worker_id,
            stop_event,
            result_queue,
            deadline,
            progress_interval=progress_interval,
            obs=obs,
            parent_pid=parent_pid,
        )
        outcome = explore_shard(space, task, ctx)
        if collect_metrics:
            space.attach_obs(None)
        result_queue.put((MSG_DONE, worker_id, task.shard_id, outcome))
