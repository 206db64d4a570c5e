"""Structural search heuristics.

The Groce-Visser (ISSTA 2002) most-enabled-threads best-first search,
a related-work baseline the paper cites as offering neither a coverage
metric nor a polynomial execution bound (included for the ablation
benchmarks).
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Dict, List, Tuple

from ..core.thread import ThreadId
from ..core.transition import StateSpace
from .strategy import SearchContext, Strategy


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

