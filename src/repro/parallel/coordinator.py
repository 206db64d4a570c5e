"""Frontier-sharded parallel ICB: the coordinator process.

The stateless search is embarrassingly parallel -- every work item is
a replayable schedule prefix -- but the paper's guarantee is *ordered*:
all executions with ``c`` preemptions must complete before any bug
found with ``c + 1`` preemptions may be reported.  The coordinator is
therefore the serial :class:`~repro.search.icb.IterativeContextBounding`
loop itself -- seeding, resume, bound events, the certified bound,
bound-completion checkpoints and stop rules are all inherited -- with
one step replaced: draining bound ``c``'s work queue.  Here the queue
is partitioned into shards, shards are dispatched to a pool of worker
processes, and only when every shard of bound ``c`` is accounted for
(explored, budget-stopped, or reported unexplored after worker
failures) does the step return -- a **per-bound barrier**.  Completed
shards are then folded into the run's live context with
:meth:`~repro.search.strategy.SearchContext.absorb` in shard order, so
the result does not depend on the order shards arrived in, and the
parallel engine reports the same executions, distinct states,
certified bound and minimal-preemption first bug as the serial engine.

Robustness: a worker crash (or a shard exceeding ``shard_timeout``)
requeues the claimed shard to a healthy worker, at most
``max_shard_retries`` times; after that the shard's items are counted
in ``extras["unexplored_items"]`` and the run is marked incomplete --
never silently dropped, and never falsely certified.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import queue
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..service.checkpoint import Checkpointer

from ..core.transition import ProgramStateSpace, StateSpace
from ..errors import ReproError, SearchBudgetExceeded, SearchInterrupted
from ..obs.instrument import Instrumentation
from ..search.icb import IterativeContextBounding
from ..search.statecache import WorkItemCache
from ..search.plan import refuse
from ..search.strategy import SearchContext, SearchLimits, SearchResult
from .workitem import Pair, ShardOutcome, ShardState, ShardTask, chunk_frontier
from .worker import (
    MSG_BUG,
    MSG_CLAIM,
    MSG_DONE,
    MSG_PROGRESS,
    STOP_TASK,
    worker_main,
)

#: Target shards per worker and bound: enough slack that a fast worker
#: keeps pulling new shards while a slow one grinds, without paying one
#: queue round-trip per item.
OVERPARTITION = 4
#: Coordinator result-queue poll interval in seconds.
POLL_INTERVAL = 0.05
#: Seconds to wait for workers to exit before terminating them.
JOIN_TIMEOUT = 5.0


@dataclass(frozen=True)
class ParallelSettings:
    """Robustness knobs of the parallel engine."""

    #: How often a crashed/timed-out shard is requeued before its
    #: items are surfaced as unexplored.
    max_shard_retries: int = 2
    #: Wall-clock seconds a claimed shard may run before its worker is
    #: terminated and the shard requeued (``None`` disables).
    shard_timeout: Optional[float] = None
    #: Worker-side cadence (in transitions) of progress streaming.
    progress_interval: int = 256
    #: Fault injection (tests only): these worker ids claim their
    #: first shard and then die hard, like a segfault would.
    fault_crash_workers: Tuple[int, ...] = ()
    #: Targeted fault injection (tests only): any worker claiming this
    #: shard dies while the task's ``attempt`` is below
    #: ``fault_crash_attempts``, so one shard can kill several workers
    #: in a row (the worker-killed-twice path) before a retry survives.
    fault_crash_shard: Optional[int] = None
    fault_crash_attempts: int = 0


class _Pool:
    """The worker processes and queues of one run, plus the bookkeeping
    that outlives a single bound."""

    def __init__(
        self,
        space: ProgramStateSpace,
        limits: SearchLimits,
        workers: int,
        settings: ParallelSettings,
        collect_metrics: bool,
    ) -> None:
        mp_ctx = _mp_context(space)
        self.tasks = mp_ctx.Queue()
        self.results = mp_ctx.Queue()
        self.stop_event = mp_ctx.Event()
        self.deadline = (
            time.monotonic() + limits.max_seconds
            if limits.max_seconds is not None
            else None
        )
        self.next_shard_id = 0
        #: Cumulative per-worker (executions, transitions) totals, fed by
        #: progress messages (instrumented runs only; drives heartbeats).
        self.worker_totals: Dict[int, Tuple[int, int]] = {}
        #: Bugs streamed by workers as they are found.  Shards report
        #: their bugs again on completion; these cover the shards that
        #: never complete (a worker lost with its shard).
        self.streamed = SearchContext()
        self.procs: Dict[int, Any] = {}
        for wid in range(workers):
            proc = mp_ctx.Process(
                target=worker_main,
                args=(
                    wid,
                    space.program,
                    space.config,
                    self.tasks,
                    self.results,
                    self.stop_event,
                    limits,
                    self.deadline,
                    settings.progress_interval,
                    wid in settings.fault_crash_workers,
                    collect_metrics,
                    settings.fault_crash_shard,
                    settings.fault_crash_attempts,
                ),
                daemon=True,
            )
            proc.start()
            self.procs[wid] = proc

    def shutdown(self) -> int:
        """Stop every worker; returns how many exited abnormally."""
        self.stop_event.set()
        for _ in self.procs:
            self.tasks.put(STOP_TASK)
        # Salvage bug reports still buffered when the run stops.
        while True:
            try:
                msg = self.results.get_nowait()
            except queue.Empty:
                break
            except (EOFError, OSError):  # pragma: no cover - teardown races
                break
            if msg and msg[0] == MSG_BUG:
                self.streamed.note_bug(msg[2])
        deadline = time.monotonic() + JOIN_TIMEOUT
        for proc in self.procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self.procs.values():
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        self.tasks.cancel_join_thread()
        self.results.cancel_join_thread()
        return sum(1 for p in self.procs.values() if p.exitcode not in (0, None))


def _mp_context(space: ProgramStateSpace) -> Any:
    """``fork`` where available; otherwise children rebuild the program
    by unpickling, which is checked up front."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    try:
        pickle.dumps((space.program, space.config))
    except Exception as exc:
        raise ReproError(
            f"parallel checking without fork requires a picklable program; "
            f"{space.program!r} is not ({exc}). Use a module-level setup "
            "function or run on a platform with fork."
        ) from exc
    return multiprocessing.get_context()


class ParallelCoordinator(IterativeContextBounding):
    """Multiprocess frontier-sharded iterative context bounding.

    A drop-in replacement for the serial strategy on a
    :class:`~repro.core.transition.ProgramStateSpace`, whose program,
    and config the workers rebuild::

        coordinator = ParallelCoordinator(workers=4, max_bound=2)
        result = coordinator.run(ChessChecker(program).space(),
                                 SearchLimits(max_seconds=60))

    The returned :class:`SearchResult` carries the same statistics and
    ``extras`` as the serial strategy, plus parallel bookkeeping
    (``workers``, ``shards``, ``shard_retries``, ``worker_failures``,
    ``unexplored_items``).

    With ``stop_on_first_bug`` the bound in which the first bug
    appears is finished before the run stops (absorbing a shard never
    raises), which keeps the answer deterministic.  Checkpoints are
    saved at bound starts, shard completions, crash requeues and bound
    completions -- never mid-shard: a shard in flight at the time of a
    crash is re-dispatched whole on resume, which is what makes resumed
    totals exactly equal uninterrupted ones.
    """

    name = "icb-parallel"
    checkpoint_extras = ("workers", "shards", "shard_retries", "unexplored_items")

    def __init__(
        self,
        workers: int = 2,
        max_bound: Optional[int] = None,
        state_caching: bool = False,
        settings: Optional[ParallelSettings] = None,
        checkpointer: Optional["Checkpointer"] = None,
    ) -> None:
        refuse(max_bound, state_caching, workers, parallel=True)
        super().__init__(max_bound=max_bound, checkpointer=checkpointer)
        self.workers = workers
        self.settings = settings or ParallelSettings()
        self._pool: Optional[_Pool] = None

    # -- the run: the serial loop around a worker pool -----------------------

    def run(
        self,
        space: StateSpace,
        limits: Optional[SearchLimits] = None,
        context: Optional[SearchContext] = None,
        obs: Optional[Instrumentation] = None,
    ) -> SearchResult:
        if not isinstance(space, ProgramStateSpace):
            raise ReproError(
                "parallel ICB needs a ProgramStateSpace: workers rebuild it "
                "from its program and config"
            )
        # The coordinator's space only answers the seeding queries; the
        # workers explore.  Detaching it keeps engine counters (replays,
        # phase timings) the workers' alone, as the serial engine
        # would count them.
        space.attach_obs(None)
        return super().run(space, limits, context, obs)

    def _search(
        self, space: StateSpace, ctx: SearchContext, extras: Dict[str, Any]
    ) -> None:
        assert isinstance(space, ProgramStateSpace)  # checked in run()
        resumed = self.checkpointer.resume_state() if self.checkpointer else None
        carried = resumed.parallel if resumed is not None else {}
        extras["workers"] = self.workers
        for key in ("shards", "shard_retries", "unexplored_items"):
            extras[key] = carried.get(key, 0)
        pool = self._pool = _Pool(
            space, ctx.limits, self.workers, self.settings, ctx.obs is not None
        )
        try:
            super()._search(space, ctx, extras)
        finally:
            self._pool = None
            extras["worker_failures"] = pool.shutdown()
            ctx.absorb(pool.streamed)

    # -- one bound under the barrier -----------------------------------------

    def _explore_bound(
        self,
        space: StateSpace,
        ctx: SearchContext,
        bound: int,
        work_queue: Deque[Pair],
        next_queue: Deque[Pair],
        cache: Optional[WorkItemCache],
        extras: Dict[str, Any],
    ) -> None:
        pool = self._pool
        assert pool is not None
        obs = ctx.obs
        outstanding: Dict[int, ShardState] = {}
        done: Dict[int, ShardOutcome] = {}
        budget: Optional[str] = None
        failure: Optional[str] = None
        executions, transitions = ctx.executions, ctx.transitions

        def save_checkpoint() -> None:
            """Journal the bound's remaining work (see docs/service.md).

            Outstanding shards are checkpointed *whole*: a shard in
            flight has no incremental state, so on resume it is simply
            re-dispatched and its lost partial work redone.
            """
            if self.checkpointer is None or budget is not None or failure is not None:
                # The bound can no longer complete: a save from here
                # would record partial shard statistics without their
                # remaining items.  The last consistent checkpoint
                # (every completed shard absorbed, every other shard
                # whole) stays authoritative for the resume.
                return
            view = SearchContext(ctx.limits, obs=obs)
            view.absorb(ctx)
            for sid in sorted(done):
                view.absorb(done[sid].context)
            work = [item for sid in sorted(outstanding) for item in outstanding[sid].task.items]
            nxt = list(next_queue) + [item for sid in sorted(done) for item in done[sid].deferred]
            self._save_checkpoint(bound, work, nxt, view, None, extras)

        for items in chunk_frontier(list(work_queue), self.workers * OVERPARTITION):
            sid = pool.next_shard_id
            pool.next_shard_id += 1
            outstanding[sid] = ShardState(task=ShardTask(sid, bound, items))
            pool.tasks.put(outstanding[sid].task)
        work_queue.clear()
        extras["shards"] += len(outstanding)
        save_checkpoint()

        while outstanding:
            if budget is None:
                budget = _budget_reason(ctx.limits, executions, transitions, pool.deadline)
                if budget is not None:
                    pool.stop_event.set()
            try:
                msg = pool.results.get(timeout=POLL_INTERVAL)
            except queue.Empty:
                lost, requeued = self._reap(outstanding, pool, extras)
                if lost:
                    failure = failure or "worker failure: shard(s) unexplored"
                if requeued:
                    # Make the requeue durable: a crash right now must
                    # re-dispatch the shard from the journal on resume,
                    # not from this process's memory.  (A *lost* shard
                    # deliberately stays in the journal as pending work:
                    # resuming gets a fresh pool and another chance.)
                    save_checkpoint()
                continue
            tag = msg[0]
            if tag == MSG_CLAIM:
                _, wid, sid = msg
                shard = outstanding.get(sid)
                if shard is not None:
                    shard.worker_id = wid
                    shard.claimed_at = time.monotonic()
            elif tag == MSG_PROGRESS:
                _, wid, exec_delta, trans_delta = msg
                executions += exec_delta
                transitions += trans_delta
                if obs is not None:
                    prior_e, prior_t = pool.worker_totals.get(wid, (0, 0))
                    totals = (prior_e + exec_delta, prior_t + trans_delta)
                    pool.worker_totals[wid] = totals
                    obs.worker_heartbeat(wid, totals[0], totals[1])
            elif tag == MSG_BUG:
                pool.streamed.note_bug(msg[2])
            elif tag == MSG_DONE:
                _, _wid, sid, outcome = msg
                if outstanding.pop(sid, None) is None:
                    continue  # duplicate after a requeue race; first wins
                done[sid] = outcome
                if obs is not None and outcome.metrics is not None:
                    obs.metrics.absorb(outcome.metrics)
                if not outcome.completed:
                    failure = failure or outcome.stop_reason
                save_checkpoint()

        # The barrier: fold shards in shard order, never arrival order.
        for sid in sorted(done):
            ctx.absorb(done[sid].context)
            next_queue.extend(done[sid].deferred)
        if budget is not None:
            raise SearchBudgetExceeded(budget)
        if failure is not None:
            raise SearchInterrupted(failure)

    def _reap(
        self,
        outstanding: Dict[int, ShardState],
        pool: _Pool,
        extras: Dict[str, Any],
    ) -> Tuple[bool, bool]:
        """Handle dead/stuck workers and a stopped pool.

        Returns ``(lost, requeued)``: whether any shard had to be
        abandoned as unexplored, and whether any was re-dispatched.
        """
        settings = self.settings
        procs = pool.procs
        stopping = pool.stop_event.is_set()
        now = time.monotonic()
        any_alive = any(p.is_alive() for p in procs.values())
        lost = False
        requeued = False
        for sid, shard in list(outstanding.items()):
            if shard.worker_id is None:
                # Still queued.  Nobody will ever claim it if the pool
                # stopped (budget) or every worker is gone.
                if stopping:
                    outstanding.pop(sid)
                elif not any_alive:
                    outstanding.pop(sid)
                    extras["unexplored_items"] += len(shard.task.items)
                    lost = True
                continue
            proc = procs.get(shard.worker_id)
            dead = proc is None or not proc.is_alive()
            if dead and stopping:
                # Pool is stopping: no retry target exists, and the
                # stop reason (budget) already marks the run incomplete.
                outstanding.pop(sid)
                continue
            if (
                not dead
                and settings.shard_timeout is not None
                and shard.claimed_at is not None
                and now - shard.claimed_at > settings.shard_timeout
                and not stopping
            ):
                proc.terminate()
                proc.join(timeout=1.0)
                dead = True
            if not dead:
                continue
            healthy = any(
                p.is_alive() for wid, p in procs.items() if wid != shard.worker_id
            )
            if shard.retries >= settings.max_shard_retries or not healthy:
                outstanding.pop(sid)
                extras["unexplored_items"] += len(shard.task.items)
                lost = True
            else:
                shard.retries += 1
                shard.worker_id = None
                shard.claimed_at = None
                extras["shard_retries"] += 1
                # Bump the attempt counter so the re-dispatched task is
                # distinguishable from the original claim (targeted
                # fault injection and diagnostics key on it).
                shard.task = dataclasses.replace(
                    shard.task, attempt=shard.task.attempt + 1
                )
                pool.tasks.put(shard.task)
                requeued = True
        return lost, requeued


def _budget_reason(
    limits: SearchLimits,
    executions: int,
    transitions: int,
    deadline: Optional[float],
) -> Optional[str]:
    """The global budget the pool has exhausted, if any."""
    if limits.max_executions is not None and executions >= limits.max_executions:
        return f"execution budget {limits.max_executions} reached"
    if limits.max_transitions is not None and transitions >= limits.max_transitions:
        return f"transition budget {limits.max_transitions} reached"
    if deadline is not None and time.monotonic() >= deadline:
        return f"time budget {limits.max_seconds}s reached"
    return None
