"""Structural search heuristics.

Two kinds live here:

* the Groce-Visser (ISSTA 2002) most-enabled-threads best-first search,
  a related-work baseline the paper cites as offering neither a
  coverage metric nor a polynomial execution bound (included for the
  ablation benchmarks);
* :class:`RaceCandidatePrioritizer`, an *ordering* heuristic driven by
  the static analysis of :mod:`repro.analysis`: ICB's deferred
  frontier is reordered so preemptions that interleave accesses to
  statically race-candidate variables run first.  Unlike a pruning
  reduction this never changes *what* a bound explores, only the order
  within the bound, so every ICB guarantee survives unchanged.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Protocol, Tuple

from ..core.thread import ThreadId
from ..core.transition import StateSpace
from .strategy import SearchContext, Strategy

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..analysis import ProgramAnalysis


class EnabledThreadsHeuristic(Strategy):
    """Best-first search ordered by number of enabled threads.

    States with more enabled threads (more potential interleaving
    activity) are expanded first; ties break FIFO.  On a stateless
    space this jumps between distant schedules and therefore replays
    heavily -- the ablation benchmark quantifies that cost.
    """

    name = "most-enabled"

    def _search(
        self, space: StateSpace, ctx: SearchContext, extras: Dict[str, Any]
    ) -> None:
        initial = space.initial_state()
        if space.is_terminal(initial):
            ctx.note_terminal(space, initial)
            return
        tiebreak = count()
        #: entries: (-enabled count, insertion order, state, tid).
        frontier: List[Tuple[int, int, object, ThreadId]] = []
        enabled = space.enabled(initial)
        for tid in enabled:
            heapq.heappush(frontier, (-len(enabled), next(tiebreak), initial, tid))
        while frontier:
            _, _, state, tid = heapq.heappop(frontier)
            successor = space.execute(state, tid)
            ctx.visit(space, successor)
            if space.is_terminal(successor):
                ctx.note_terminal(space, successor)
                continue
            enabled = space.enabled(successor)
            for other in enabled:
                heapq.heappush(
                    frontier, (-len(enabled), next(tiebreak), successor, other)
                )


class FrontierPrioritizer(Protocol):
    """Reorders ICB's deferred work items at a bound increment."""

    def sort_frontier(
        self, space: StateSpace, items: Iterable[Tuple[object, ThreadId]]
    ) -> List[Tuple[object, ThreadId]]:
        """A permutation of ``items`` (must lose and add nothing)."""
        ...  # pragma: no cover - protocol


class RaceCandidatePrioritizer:
    """Explore preemptions at statically-suspect accesses first.

    The static race candidates of :mod:`repro.analysis` name the
    variables whose accesses can possibly race; a deferred work item
    ``(state, tid)`` that immediately accesses one of those *hot*
    variables is the kind of preemption most likely to expose a bug.
    The sort is stable, so items within each class keep ICB's original
    FIFO order.

    Peeking at a deferred item's pending effect replays its schedule,
    so sorting a large frontier is not free -- this is an opt-in knob
    (``IterativeContextBounding(prioritizer=...)``), aimed at runs that
    stop on the first bug.
    """

    def __init__(self, analysis: "ProgramAnalysis") -> None:
        self.analysis = analysis
        self.hot = frozenset(analysis.hot_variables)

    def sort_frontier(
        self, space: StateSpace, items: Iterable[Tuple[object, ThreadId]]
    ) -> List[Tuple[object, ThreadId]]:
        items = list(items)
        execution_at = getattr(space, "execution_at", None)
        if execution_at is None or not self.hot:
            return items
        hot = self.hot

        def coldness(item: Tuple[object, ThreadId]) -> int:
            state, tid = item[0], item[1]
            effect = execution_at(state).pending_effect(tid)
            target = getattr(effect, "target", None)
            name = getattr(target, "name", None)
            return 0 if name in hot else 1

        return sorted(items, key=coldness)
