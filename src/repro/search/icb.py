"""Iterative context bounding -- Algorithm 1 of the paper.

The search maintains two queues of work items ``(state, tid)``.
``work_queue`` holds items explorable within the current preemption
bound; whenever continuing the current thread is possible but the
search wants to schedule a different *enabled* thread -- a preempting
context switch -- the corresponding item is deferred to
``next_queue``.  When the current bound is exhausted the bound is
incremented and the deferred items become the new frontier.

Consequences (Section 2 of the paper), all preserved here:

* every execution with ``c`` preemptions is explored before any
  execution with ``c + 1`` preemptions, so the first bug found is
  exposed with the *minimum* possible number of preemptions;
* nonpreempting context switches (from a blocked or finished thread)
  are free: they are explored depth-first within the current bound, so
  executions reach unbounded depth even at bound zero;
* if the search completes bound ``c`` without finding a bug, the
  program is certified correct for all executions with at most ``c``
  preemptions.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from ..core.transition import StateSpace
from ..errors import SearchInterrupted
from .plan import refuse
from .statecache import WorkItemCache
from .strategy import SearchContext, Strategy

#: ``(state, tid)``; with the work-item table on, pushed and deferred
#: items append the state's fingerprint (see ``_search_item``).
WorkItem = Tuple[Any, ...]


class IterativeContextBounding(Strategy):
    """The paper's iterative context-bounding search.

    Args:
        max_bound: stop after completing this preemption bound
            (``None`` explores bounds until the space is exhausted).
        state_caching: enable the work-item table of Algorithm 1
            (the ZING configuration; CHESS runs without it).
        checkpointer: optional
            :class:`~repro.service.checkpoint.Checkpointer`.  The
            search resumes from its checkpoint when one exists, and
            saves between work items (every ``stride`` items, and at
            every bound completion).  Saves never happen mid-item, so
            an interrupted-then-resumed run explores exactly the
            executions an uninterrupted one would (see
            ``docs/service.md``).
    """

    name = "icb"
    #: Extras recorded in each checkpoint's ``parallel`` section (the
    #: parallel engine's cumulative bookkeeping; none for serial runs).
    checkpoint_extras: Tuple[str, ...] = ()

    def __init__(
        self,
        max_bound: Optional[int] = None,
        state_caching: bool = False,
        checkpointer: Optional[Any] = None,
    ) -> None:
        refuse(max_bound, state_caching)
        self.max_bound = max_bound
        self.state_caching = state_caching
        self.checkpointer = checkpointer

    def _search(
        self, space: StateSpace, ctx: SearchContext, extras: Dict[str, Any]
    ) -> None:
        cache = WorkItemCache() if self.state_caching else None
        initial = space.initial_state()

        work_queue: Deque[WorkItem] = deque()
        next_queue: Deque[WorkItem] = deque()
        bound = 0
        extras["completed_bound"] = None

        checkpointer = self.checkpointer
        resumed = checkpointer.resume_state() if checkpointer is not None else None
        if resumed is not None:
            # Continue exactly where the checkpoint left off: queues,
            # bound and accumulated statistics are all restored; work
            # lost after the last save is simply redone.
            bound = resumed.bound
            extras["completed_bound"] = resumed.completed_bound
            extras["resumed"] = True
            work_queue = deque(resumed.work_items)
            next_queue = deque(resumed.next_items)
            resumed.restore_context(ctx)
            if cache is not None:
                resumed.restore_cache(cache)
        else:
            for tid in space.enabled(initial):
                work_queue.append((initial, tid))
            if not work_queue and space.is_terminal(initial):
                ctx.note_terminal(space, initial)

        obs = ctx.obs
        try:
            while True:
                if obs is not None:
                    obs.bound_started(bound, len(work_queue))
                self._explore_bound(
                    space, ctx, bound, work_queue, next_queue, cache, extras
                )
                # All executions with at most `bound` preemptions explored.
                extras["completed_bound"] = bound
                if obs is not None:
                    obs.bound_completed(bound, ctx.executions, len(ctx.states))
                if checkpointer is not None:
                    self._save_checkpoint(
                        bound, work_queue, next_queue, ctx, cache, extras
                    )
                if ctx.limits.stop_on_first_bug and ctx.bugs:
                    # A run that holds a bug at the end of a bound (the
                    # parallel engine's, or one resumed with bugs) stops
                    # here; the serial engine stops at the bug itself.
                    raise SearchInterrupted("stopping at first bug")
                if not next_queue:
                    break
                if self.max_bound is not None and bound >= self.max_bound:
                    break
                bound += 1
                work_queue, next_queue = next_queue, deque()
        finally:
            extras["final_frontier"] = len(next_queue)
            if cache is not None:
                extras["cache_hits"] = cache.hits
                extras["cache_size"] = len(cache)

    def _explore_bound(
        self,
        space: StateSpace,
        ctx: SearchContext,
        bound: int,
        work_queue: Deque[WorkItem],
        next_queue: Deque[WorkItem],
        cache: Optional[WorkItemCache],
        extras: Dict[str, Any],
    ) -> None:
        """Drain ``work_queue``: explore every item within ``bound``,
        deferring each preempting choice into ``next_queue``.

        Raises ``SearchBudgetExceeded``/``SearchInterrupted`` when the
        bound cannot complete.  The parallel engine overrides this
        step only (see :mod:`repro.parallel.coordinator`).
        """
        checkpointer = self.checkpointer
        while work_queue:
            item = work_queue.popleft()
            self._search_item(space, ctx, item, next_queue, cache)
            if checkpointer is not None and checkpointer.note_item():
                self._save_checkpoint(
                    bound, work_queue, next_queue, ctx, cache, extras
                )

    def _save_checkpoint(
        self,
        bound: int,
        work_queue: Iterable[WorkItem],
        next_queue: Iterable[WorkItem],
        ctx: SearchContext,
        cache: Optional[WorkItemCache],
        extras: Dict[str, Any],
    ) -> None:
        assert self.checkpointer is not None
        self.checkpointer.save_state(
            bound,
            work_queue,
            next_queue,
            ctx,
            extras["completed_bound"],
            cache=cache,
            parallel={key: extras[key] for key in self.checkpoint_extras},
        )

    def _search_item(
        self,
        space: StateSpace,
        ctx: SearchContext,
        item: WorkItem,
        next_queue: Deque[WorkItem],
        cache: Optional[WorkItemCache],
    ) -> None:
        """The recursive ``Search`` procedure, iteratively.

        Explores everything reachable from ``item`` without an
        additional preemption, deferring each preempting alternative
        into ``next_queue``.

        With the work-item table on, every item this pushes or defers
        carries its state's fingerprint as a third element, computed
        by ``ctx.visit`` on the live execution: looking it up in the
        table then needs no replay.  Initial and resumed items are
        plain pairs and pay for ``space.fingerprint``.
        """
        obs = ctx.obs
        stack: List[WorkItem] = [item]
        while stack:
            item = stack.pop()
            state, tid = item[0], item[1]
            if cache is not None:
                fingerprint = item[2] if len(item) > 2 else space.fingerprint(state)
                hit = cache.seen(fingerprint, tid)
                if obs is not None:
                    obs.cache_lookup(hit)
                if hit:
                    continue
            successor = space.execute(state, tid)
            fingerprint = ctx.visit(space, successor)
            carried = () if cache is None else (fingerprint,)
            if space.is_terminal(successor):
                ctx.note_terminal(space, successor)
                continue
            enabled = space.enabled(successor)
            if tid in enabled:
                # The running thread may continue: scheduling any other
                # enabled thread here would be a preemption.
                stack.append((successor, tid) + carried)
                for other in enabled:
                    if other != tid:
                        next_queue.append((successor, other) + carried)
            else:
                # The running thread blocked or finished: switching is
                # nonpreempting and free, so explore every choice now.
                for other in reversed(enabled):
                    stack.append((successor, other) + carried)
