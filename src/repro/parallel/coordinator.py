"""Frontier-sharded parallel ICB: the coordinator process.

The stateless search is embarrassingly parallel -- every work item is
a replayable schedule prefix -- but the paper's guarantee is *ordered*:
all executions with ``c`` preemptions must complete before any bug
found with ``c + 1`` preemptions may be reported.  The coordinator
therefore runs a **per-bound barrier**: the frontier of bound ``c`` is
partitioned into shards, shards are dispatched to a pool of worker
processes, and only when every shard of bound ``c`` is accounted for
(explored, budget-stopped, or reported unexplored after worker
failures) does the merged set of deferred items become the frontier of
bound ``c + 1``.  Within a bound, exploration order is irrelevant: the
per-item searches are independent, and all merged quantities (sums,
unions, minima) are order-insensitive, so the parallel engine reports
the same executions, distinct states, certified bound and
minimal-preemption first bug as the serial engine.

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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..service.checkpoint import Checkpointer

from ..core.execution import ExecutionConfig
from ..core.program import Program
from ..core.transition import ProgramStateSpace
from ..errors import (
    BugReport,
    ReproError,
    SearchBudgetExceeded,
    SearchInterrupted,
)
from ..obs.instrument import Instrumentation
from ..obs.metrics import MetricsSnapshot
from ..search.strategy import (
    SearchContext,
    SearchLimits,
    SearchResult,
    _better_witness,
)
from .workitem import ShardState, ShardTask, WorkItem, chunk_frontier
from .worker import (
    MSG_BUG,
    MSG_CLAIM,
    MSG_DONE,
    MSG_PROGRESS,
    STOP_TASK,
    worker_main,
)


@dataclass(frozen=True)
class ParallelSettings:
    """Tuning and robustness knobs of the parallel engine."""

    #: Target shards per worker and bound; more shards mean better
    #: load balancing, fewer mean less queue traffic.
    overpartition: int = 4
    #: Fixed shard size (overrides ``overpartition`` when set).
    chunk_size: Optional[int] = None
    #: How often a crashed/timed-out shard is requeued before its
    #: items are surfaced as unexplored.
    max_shard_retries: int = 2
    #: Wall-clock seconds a claimed shard may run before its worker is
    #: terminated and the shard requeued (``None`` disables).
    shard_timeout: Optional[float] = None
    #: Worker-side cadence (in budget checks) of stop-event polling.
    stop_check_interval: int = 64
    #: Worker-side cadence (in transitions) of progress streaming.
    progress_interval: int = 256
    #: Coordinator result-queue poll interval in seconds.
    poll_interval: float = 0.05
    #: ``multiprocessing`` start method; ``None`` prefers ``fork``
    #: (any other method requires a picklable program).
    start_method: Optional[str] = None
    #: Seconds to wait for workers to exit before terminating them.
    join_timeout: float = 5.0
    #: Fault injection (tests only): these worker ids claim their
    #: first shard and then die hard, like a segfault would.
    fault_crash_workers: Tuple[int, ...] = ()
    #: Targeted fault injection (tests only): any worker claiming this
    #: shard dies while the task's ``attempt`` is below
    #: ``fault_crash_attempts``, so one shard can kill several workers
    #: in a row (the worker-killed-twice path) before a retry survives.
    fault_crash_shard: Optional[int] = None
    fault_crash_attempts: int = 0


@dataclass
class _RunState:
    """Mutable bookkeeping shared across bounds of one run."""

    next_shard_id: int = 0
    total_executions: int = 0
    total_transitions: int = 0
    budget_reason: Optional[str] = None
    #: Bugs streamed by workers, deduplicated by signature with the
    #: minimal-preemption witness kept (same rule as SearchContext).
    bugs: Dict[Tuple[Any, ...], BugReport] = field(default_factory=dict)
    shard_results: List[SearchResult] = field(default_factory=list)
    #: Per-shard metric snapshots (instrumented runs only).
    metric_snapshots: List[MetricsSnapshot] = field(default_factory=list)
    #: Cumulative per-worker (executions, transitions) totals, fed by
    #: progress messages (instrumented runs only; drives heartbeats).
    worker_totals: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: Union of worker-reported state fingerprints (instrumented runs
    #: only; gives bound-completed events an exact distinct count).
    known_states: set = field(default_factory=set)
    #: Persists each adopted witness as a trace file (``None`` when no
    #: trace directory was configured).  Called on the coordinator, so
    #: a bug found in a worker process becomes durable the moment it
    #: streams in -- even if the run later crashes or is killed.
    trace_writer: Optional[Any] = None

    def note_bug(self, bug: BugReport) -> None:
        known = self.bugs.get(bug.signature)
        if known is None or _better_witness(bug, known):
            self.bugs[bug.signature] = bug
            if self.trace_writer is not None:
                self.trace_writer(bug)


class ParallelCoordinator:
    """Multiprocess frontier-sharded iterative context bounding.

    Drop-in alternative to running
    :class:`~repro.search.icb.IterativeContextBounding` serially::

        coordinator = ParallelCoordinator(program, workers=4, max_bound=2)
        result = coordinator.run(limits=SearchLimits(max_seconds=60))

    The returned :class:`SearchResult` carries the same statistics and
    ``extras["completed_bound"]`` certificate as the serial strategy,
    plus parallel bookkeeping (``workers``, ``shards``,
    ``shard_retries``, ``worker_failures``, ``unexplored_items``).
    """

    strategy_name = "icb-parallel"

    def __init__(
        self,
        program: Program,
        config: Optional[ExecutionConfig] = None,
        workers: int = 2,
        max_bound: Optional[int] = None,
        settings: Optional[ParallelSettings] = None,
        trace_dir: Optional[Any] = None,
        trace_spec: Optional[str] = None,
        obs: Optional[Instrumentation] = None,
        checkpointer: Optional["Checkpointer"] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_bound is not None and max_bound < 0:
            raise ValueError("max_bound must be non-negative")
        self.program = program
        self.config = config or ExecutionConfig()
        self.workers = workers
        self.max_bound = max_bound
        self.settings = settings or ParallelSettings()
        self.trace_dir = trace_dir
        self.trace_spec = trace_spec
        self.obs = obs
        #: Optional durable checkpointing (see ``docs/service.md``):
        #: the run resumes from an existing checkpoint and journals
        #: its frontier at bound starts, shard completions, crash
        #: requeues and bound completions.  Saves happen only at shard
        #: boundaries -- a shard in flight at the time of a crash is
        #: re-dispatched whole on resume, and its partial results are
        #: discarded with the dead run, which is what makes resumed
        #: totals exactly equal uninterrupted ones.
        self.checkpointer = checkpointer

    def _trace_writer(self) -> Optional[Any]:
        """Build the streamed-bug persister for this run, if enabled."""
        if self.trace_dir is None:
            return None
        from ..trace.corpus import TraceCorpus
        from ..trace.format import TraceRecord

        corpus = TraceCorpus(self.trace_dir)

        def write(bug: BugReport) -> None:
            corpus.save(
                TraceRecord.from_bug(
                    self.program, self.config, bug, spec=self.trace_spec
                )
            )

        return write

    # -- public API ---------------------------------------------------------

    def run(self, limits: Optional[SearchLimits] = None) -> SearchResult:
        """Explore the program's state space across the worker pool."""
        limits = limits or SearchLimits()
        if self.obs is not None:
            self.obs.search_started(self.strategy_name, self.program.name)
        space = ProgramStateSpace(self.program, self.config)
        initial = space.initial_state()
        extras: Dict[str, Any] = {
            "completed_bound": None,
            "workers": self.workers,
            "shards": 0,
            "shard_retries": 0,
            "worker_failures": 0,
            "unexplored_items": 0,
        }
        resumed = (
            self.checkpointer.resume_state() if self.checkpointer is not None else None
        )
        if resumed is not None:
            # Checkpointed frontier replaces the initial one; the
            # pre-interruption statistics are seeded into the run
            # state inside _run_pool.
            frontier = list(resumed.work_items)
            carry = list(resumed.next_items)
            bound = resumed.bound
            extras["completed_bound"] = resumed.completed_bound
            extras["resumed"] = True
            for key in ("shards", "shard_retries", "unexplored_items"):
                extras[key] = resumed.parallel.get(key, 0)
            return self._run_pool(frontier, limits, extras, resumed, carry, bound)
        frontier = [WorkItem((), tid, 0) for tid in space.enabled(initial)]
        if not frontier:
            return self._run_degenerate(space, initial, limits, extras)
        return self._run_pool(frontier, limits, extras)

    # -- degenerate case: nothing to parallelize -----------------------------

    def _run_degenerate(
        self,
        space: ProgramStateSpace,
        initial: object,
        limits: SearchLimits,
        extras: Dict[str, Any],
    ) -> SearchResult:
        ctx = SearchContext(limits, obs=self.obs)
        ctx.record_initial(space, initial)
        completed, reason = True, "exhausted state space"
        try:
            if space.is_terminal(initial):
                ctx.note_terminal(space, initial)
        except (SearchBudgetExceeded, SearchInterrupted) as exc:
            completed, reason = False, str(exc)
        extras["completed_bound"] = 0 if completed else None
        extras["final_frontier"] = 0
        if self.obs is not None:
            self.obs.search_finished(
                self.strategy_name, completed, reason,
                ctx.executions, ctx.transitions, len(ctx.states), len(ctx.bugs),
            )
        return SearchResult(self.strategy_name, completed, reason, ctx, extras)

    # -- pool lifecycle -------------------------------------------------------

    def _mp_context(self):
        method = self.settings.start_method
        if method is None:
            available = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in available else None
        if method is not None and method != "fork":
            # Children must be able to rebuild the program by unpickling.
            try:
                pickle.dumps((self.program, self.config))
            except Exception as exc:
                raise ReproError(
                    f"parallel checking with start method {method!r} requires a "
                    f"picklable program; {self.program!r} is not ({exc}). Use a "
                    "module-level setup function or run on a platform with fork."
                ) from exc
        return multiprocessing.get_context(method)

    def _run_pool(
        self,
        frontier: List[WorkItem],
        limits: SearchLimits,
        extras: Dict[str, Any],
        resumed: Optional[Any] = None,
        carry: Optional[List[WorkItem]] = None,
        start_bound: int = 0,
    ) -> SearchResult:
        settings = self.settings
        mp_ctx = self._mp_context()
        task_queue = mp_ctx.Queue()
        result_queue = mp_ctx.Queue()
        stop_event = mp_ctx.Event()
        deadline = (
            time.monotonic() + limits.max_seconds
            if limits.max_seconds is not None
            else None
        )
        procs: Dict[int, Any] = {}
        for wid in range(self.workers):
            proc = mp_ctx.Process(
                target=worker_main,
                args=(
                    wid,
                    self.program,
                    self.config,
                    task_queue,
                    result_queue,
                    stop_event,
                    limits,
                    deadline,
                    settings.stop_check_interval,
                    settings.progress_interval,
                    wid in settings.fault_crash_workers,
                    self.obs is not None,
                    settings.fault_crash_shard,
                    settings.fault_crash_attempts,
                ),
                daemon=True,
            )
            proc.start()
            procs[wid] = proc

        state = _RunState(trace_writer=self._trace_writer())
        if resumed is not None:
            # Fold the pre-interruption statistics in as one synthetic
            # "shard": merge treats it like any completed part, so the
            # resumed run's totals continue from the checkpoint.
            base = resumed.as_base_result(limits)
            state.shard_results.append(base)
            state.total_executions += base.executions
            state.total_transitions += base.transitions
            for bug in base.context.bugs.values():
                known = state.bugs.get(bug.signature)
                if known is None or _better_witness(bug, known):
                    # Seed directly: these witnesses were persisted by
                    # the interrupted run already.
                    state.bugs[bug.signature] = bug
            if self.obs is not None:
                state.known_states.update(base.context.states)
                if resumed.metrics is not None:
                    state.metric_snapshots.append(resumed.metrics)
        completed, reason = True, "exhausted state space"
        bound = start_bound
        carry = list(carry or [])
        try:
            while True:
                next_frontier, bound_ok, fail_reason = self._run_bound(
                    bound, frontier, task_queue, result_queue, stop_event,
                    procs, state, limits, deadline, extras, carry,
                )
                carry = []
                if bound_ok:
                    extras["completed_bound"] = bound
                else:
                    completed = False
                    reason = state.budget_reason or fail_reason or "bound incomplete"
                    frontier = next_frontier
                    break
                if limits.stop_on_first_bug and state.bugs:
                    # The bound barrier, not an eager stop, preserves
                    # the minimal-preemption guarantee: the whole bound
                    # finished, so the smallest witness is in hand.
                    completed, reason = False, "stopping at first bug"
                    frontier = next_frontier
                    break
                if not next_frontier:
                    frontier = []
                    break
                if self.max_bound is not None and bound >= self.max_bound:
                    frontier = next_frontier
                    break
                bound += 1
                frontier = next_frontier
        finally:
            stop_event.set()
            for _ in procs:
                task_queue.put(STOP_TASK)
            self._drain_stray_messages(result_queue, state)
            self._shutdown(procs, settings.join_timeout)
            extras["worker_failures"] = sum(
                1 for p in procs.values() if p.exitcode not in (0, None)
            )
            task_queue.cancel_join_thread()
            result_queue.cancel_join_thread()

        extras["final_frontier"] = len(frontier)
        return self._merged_result(state, limits, completed, reason, extras)

    # -- one bound under the barrier -----------------------------------------

    def _run_bound(
        self,
        bound: int,
        frontier: List[WorkItem],
        task_queue: Any,
        result_queue: Any,
        stop_event: Any,
        procs: Dict[int, Any],
        state: _RunState,
        limits: SearchLimits,
        deadline: Optional[float],
        extras: Dict[str, Any],
        carry: Optional[List[WorkItem]] = None,
    ) -> Tuple[List[WorkItem], bool, Optional[str]]:
        settings = self.settings
        obs = self.obs
        outstanding: Dict[int, ShardState] = {}
        deferred: Dict[int, Tuple[WorkItem, ...]] = {}
        #: Next-bound items inherited from a resumed checkpoint (the
        #: deferrals of shards that completed before the interruption).
        carried: List[WorkItem] = list(carry or [])
        bound_ok = True
        fail_reason: Optional[str] = None
        if obs is not None:
            obs.bound_started(bound, len(frontier))

        def save_checkpoint(completed_bound: Optional[int] = None) -> None:
            """Journal the bound's remaining work (see docs/service.md).

            Outstanding shards are checkpointed *whole*: a shard in
            flight has no incremental state, so on resume it is simply
            re-dispatched and its lost partial work redone.
            """
            if self.checkpointer is None:
                return
            if not bound_ok or state.budget_reason is not None:
                # The bound can no longer complete: partial shard
                # results are now mixed into the run state, so any save
                # from here would record their statistics without their
                # remaining items.  The last consistent checkpoint
                # (every absorbed shard completed, every other shard
                # whole) stays authoritative for the resume.
                return
            work = [
                item
                for sid in sorted(outstanding)
                for item in outstanding[sid].task.items
            ]
            nxt = carried + [
                item for sid in sorted(deferred) for item in deferred[sid]
            ]
            if completed_bound is None:
                completed_bound = extras.get("completed_bound")
            self._save_checkpoint(state, bound, work, nxt, extras, completed_bound)

        for items in chunk_frontier(
            frontier, self.workers, settings.overpartition, settings.chunk_size
        ):
            sid = state.next_shard_id
            state.next_shard_id += 1
            outstanding[sid] = ShardState(task=ShardTask(sid, bound, items))
            task_queue.put(outstanding[sid].task)
        extras["shards"] += len(outstanding)
        save_checkpoint()

        while outstanding:
            budget_reason = self._global_budget_reason(state, limits, deadline)
            if budget_reason is not None and state.budget_reason is None:
                state.budget_reason = budget_reason
                stop_event.set()
            try:
                msg = result_queue.get(timeout=settings.poll_interval)
            except queue.Empty:
                lost, requeued = self._reap(
                    outstanding, procs, state, extras, task_queue, stop_event
                )
                if lost:
                    bound_ok = False
                    fail_reason = fail_reason or "worker failure: shard(s) unexplored"
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
                state.total_executions += exec_delta
                state.total_transitions += trans_delta
                if obs is not None:
                    prior_e, prior_t = state.worker_totals.get(wid, (0, 0))
                    totals = (prior_e + exec_delta, prior_t + trans_delta)
                    state.worker_totals[wid] = totals
                    obs.worker_heartbeat(wid, totals[0], totals[1])
            elif tag == MSG_BUG:
                _, _wid, bug = msg
                state.note_bug(bug)
            elif tag == MSG_DONE:
                _, _wid, sid, outcome = msg
                shard = outstanding.pop(sid, None)
                if shard is None:
                    continue  # duplicate after a requeue race; first wins
                state.shard_results.append(outcome.search)
                deferred[sid] = outcome.deferred
                if obs is not None:
                    if outcome.metrics is not None:
                        state.metric_snapshots.append(outcome.metrics)
                    state.known_states.update(outcome.search.context.states)
                for bug in outcome.search.context.bugs.values():
                    state.note_bug(bug)
                if not outcome.completed:
                    bound_ok = False
                    fail_reason = fail_reason or outcome.stop_reason
                save_checkpoint()

        merged_frontier: List[WorkItem] = []
        merged_frontier.extend(carried)
        for sid in sorted(deferred):
            merged_frontier.extend(deferred[sid])
        if state.budget_reason is not None:
            bound_ok = False
            fail_reason = state.budget_reason
        if obs is not None and bound_ok:
            obs.bound_completed(
                bound, state.total_executions, len(state.known_states)
            )
        if bound_ok and self.checkpointer is not None:
            # Bound-completion save: empty current queue, the merged
            # next-bound frontier deferred.  Resuming this shape
            # re-enters the (empty) bound and advances immediately.
            self._save_checkpoint(
                state, bound, [], merged_frontier, extras, bound
            )
        return merged_frontier, bound_ok, fail_reason

    def _reap(
        self,
        outstanding: Dict[int, ShardState],
        procs: Dict[int, Any],
        state: _RunState,
        extras: Dict[str, Any],
        task_queue: Any,
        stop_event: Any,
    ) -> Tuple[bool, bool]:
        """Handle dead/stuck workers and a stopped pool.

        Returns ``(lost, requeued)``: whether any shard had to be
        abandoned as unexplored, and whether any was re-dispatched.
        """
        settings = self.settings
        now = time.monotonic()
        any_alive = any(p.is_alive() for p in procs.values())
        lost = False
        requeued = False
        for sid, shard in list(outstanding.items()):
            if shard.worker_id is None:
                # Still queued.  Nobody will ever claim it if the pool
                # stopped (budget) or every worker is gone.
                if stop_event.is_set():
                    outstanding.pop(sid)
                elif not any_alive:
                    outstanding.pop(sid)
                    extras["unexplored_items"] += len(shard.task.items)
                    lost = True
                continue
            proc = procs.get(shard.worker_id)
            dead = proc is None or not proc.is_alive()
            if dead and stop_event.is_set():
                # Pool is stopping: no retry target exists, and the
                # stop reason (budget) already marks the run incomplete.
                outstanding.pop(sid)
                continue
            if (
                not dead
                and settings.shard_timeout is not None
                and shard.claimed_at is not None
                and now - shard.claimed_at > settings.shard_timeout
                and not stop_event.is_set()
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
                task_queue.put(shard.task)
                requeued = True
        return lost, requeued

    # -- checkpointing --------------------------------------------------------

    def _save_checkpoint(
        self,
        state: _RunState,
        bound: int,
        work_items: List[WorkItem],
        next_items: List[WorkItem],
        extras: Dict[str, Any],
        completed_bound: Optional[int],
    ) -> None:
        """Persist the run's current frontier and merged statistics."""
        assert self.checkpointer is not None
        if state.shard_results:
            ordered = sorted(
                state.shard_results,
                key=lambda r: (r.extras.get("bound", 0), r.extras.get("shard_id", 0)),
            )
            ctx = SearchResult.merge(ordered).context
        else:
            ctx = SearchContext()
        for bug in state.bugs.values():
            known = ctx.bugs.get(bug.signature)
            if known is None or _better_witness(bug, known):
                ctx.bugs[bug.signature] = bug
        metrics = (
            MetricsSnapshot.merge(state.metric_snapshots)
            if state.metric_snapshots
            else None
        )
        parallel = {
            key: extras[key]
            for key in ("workers", "shards", "shard_retries", "unexplored_items")
            if isinstance(extras.get(key), int)
        }
        if self.checkpointer.obs is None and self.obs is not None:
            # The merged context carries no instrumentation, so route
            # the checkpoint_saved event through the run's own obs.
            self.checkpointer.obs = self.obs
        self.checkpointer.save_state(
            bound,
            work_items,
            next_items,
            ctx,
            completed_bound,
            metrics=metrics,
            parallel=parallel,
        )

    # -- budgets --------------------------------------------------------------

    @staticmethod
    def _global_budget_reason(
        state: _RunState, limits: SearchLimits, deadline: Optional[float]
    ) -> Optional[str]:
        if (
            limits.max_executions is not None
            and state.total_executions >= limits.max_executions
        ):
            return f"execution budget {limits.max_executions} reached"
        if (
            limits.max_transitions is not None
            and state.total_transitions >= limits.max_transitions
        ):
            return f"transition budget {limits.max_transitions} reached"
        if deadline is not None and time.monotonic() >= deadline:
            return f"time budget {limits.max_seconds}s reached"
        return None

    # -- shutdown and merging --------------------------------------------------

    def _drain_stray_messages(self, result_queue: Any, state: _RunState) -> None:
        """Salvage bug reports still buffered when the run stops."""
        while True:
            try:
                msg = result_queue.get_nowait()
            except queue.Empty:
                return
            except (EOFError, OSError):  # pragma: no cover - teardown races
                return
            if msg and msg[0] == MSG_BUG:
                state.note_bug(msg[2])

    @staticmethod
    def _shutdown(procs: Dict[int, Any], join_timeout: float) -> None:
        deadline = time.monotonic() + join_timeout
        for proc in procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in procs.values():
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)

    def _merged_result(
        self,
        state: _RunState,
        limits: SearchLimits,
        completed: bool,
        reason: str,
        extras: Dict[str, Any],
    ) -> SearchResult:
        if state.shard_results:
            ordered = sorted(
                state.shard_results,
                key=lambda r: (r.extras.get("bound", 0), r.extras.get("shard_id", 0)),
            )
            merged = SearchResult.merge(
                ordered,
                strategy=self.strategy_name,
                completed=completed,
                stop_reason=reason,
            )
            ctx = merged.context
            ctx.limits = limits
        else:
            # Every shard was lost before reporting; return what the
            # coordinator knows (streamed bugs) rather than nothing.
            ctx = SearchContext(limits)
            space = ProgramStateSpace(self.program, self.config)
            ctx.record_initial(space, space.initial_state())
            merged = SearchResult(self.strategy_name, completed, reason, ctx, {})
        for bug in state.bugs.values():
            known = ctx.bugs.get(bug.signature)
            if known is None or _better_witness(bug, known):
                ctx.bugs[bug.signature] = bug
        merged.extras = extras
        obs = self.obs
        if obs is not None:
            if state.metric_snapshots:
                obs.metrics.absorb(MetricsSnapshot.merge(state.metric_snapshots))
            # Summed worker snapshots double-count cross-worker state
            # revisits and re-found bugs; the merged context has the
            # true union, so install it as ground truth.
            obs.metrics.reconcile_states(ctx.states_by_bound(), bugs=len(ctx.bugs))
            obs.search_finished(
                self.strategy_name,
                completed,
                reason,
                ctx.executions,
                ctx.transitions,
                len(ctx.states),
                len(ctx.bugs),
            )
        return merged
