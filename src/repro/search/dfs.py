"""Depth-first search, unbounded or depth-bounded.

The baselines of the paper's Figure 2: ``dfs`` (unbounded depth-first
search) and ``db:N`` (depth-first search pruned at depth ``N``).  DFS
over a stateless space replays prefixes when it backtracks, exactly as
the paper's CHESS does.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.thread import ThreadId
from ..core.transition import StateSpace
from .statecache import WorkItemCache
from .strategy import SearchContext, Strategy


class DepthFirstSearch(Strategy):
    """Classic DFS over scheduling choices.

    Args:
        depth_bound: prune executions at this many steps (``db:N`` in
            the paper); ``None`` searches unboundedly.
        state_caching: prune revisited (state, thread) work items.
    """

    def __init__(
        self, depth_bound: Optional[int] = None, state_caching: bool = False
    ) -> None:
        if depth_bound is not None and depth_bound < 1:
            raise ValueError("depth_bound must be positive")
        self.depth_bound = depth_bound
        self.state_caching = state_caching

    @property
    def name(self) -> str:  # type: ignore[override]
        return "dfs" if self.depth_bound is None else f"db:{self.depth_bound}"

    def _search(
        self, space: StateSpace, ctx: SearchContext, extras: Dict[str, Any]
    ) -> None:
        cache = WorkItemCache() if self.state_caching else None
        initial = space.initial_state()
        if space.is_terminal(initial):
            ctx.note_terminal(space, initial)
            return
        #: stack entries: (state, tid to run, depth of state).
        stack: List[Tuple[object, ThreadId, int]] = [
            (initial, tid, 0) for tid in reversed(space.enabled(initial))
        ]
        pruned = 0
        try:
            while stack:
                state, tid, depth = stack.pop()
                if cache is not None and cache.seen(space.fingerprint(state), tid):
                    continue
                successor = space.execute(state, tid)
                ctx.visit(space, successor)
                if space.is_terminal(successor):
                    ctx.note_terminal(space, successor)
                    continue
                if self.depth_bound is not None and depth + 1 >= self.depth_bound:
                    # A depth-pruned path still counts as one explored
                    # execution, as in the paper's db:N curves.
                    pruned += 1
                    ctx.note_terminal(space, successor)
                    continue
                for other in reversed(space.enabled(successor)):
                    stack.append((successor, other, depth + 1))
        finally:
            # Also on a budget stop: the table's totals are what the
            # run's metrics report as cache lookups and hits.
            extras["pruned_executions"] = pruned
            if cache is not None:
                extras["cache_hits"] = cache.hits
                extras["cache_size"] = len(cache)
