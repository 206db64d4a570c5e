"""Search strategies over program state spaces.

The paper's contribution, iterative context bounding
(:class:`~repro.search.icb.IterativeContextBounding`), plus every
baseline it is evaluated against:

* unbounded and depth-bounded depth-first search
  (:class:`~repro.search.dfs.DepthFirstSearch`, the ``dfs`` and
  ``db:N`` curves of Figure 2);
* iterative depth-bounding
  (:class:`~repro.search.iddfs.IterativeDeepening`, the ``idfs``
  curves of Figures 5 and 6);
* uniform random walk (:class:`~repro.search.random_walk.RandomWalk`,
  the ``random`` curve of Figure 2);
* the Groce-Visser most-enabled-threads heuristic
  (:class:`~repro.search.heuristics.EnabledThreadsHeuristic`),
  a related-work baseline;
* sleep-set partial-order reduction
  (:class:`~repro.search.por.SleepSetDFS`), the complementary
  state-reduction technique the paper's future work calls for.

All strategies run against the abstract
:class:`~repro.core.transition.StateSpace` interface, so each works
unchanged on the stateless CHESS-style space and the explicit-state
ZING space.
"""

from .dfs import DepthFirstSearch
from .heuristics import EnabledThreadsHeuristic
from .icb import IterativeContextBounding
from .pct import PCTScheduler
from .plan import CheckPlan, PlanError
from .por import SleepSetDFS
from .iddfs import IterativeDeepening
from .random_walk import RandomWalk
from .statecache import WorkItemCache
from .strategy import SearchContext, SearchLimits, SearchResult, Strategy

__all__ = [
    "CheckPlan",
    "DepthFirstSearch",
    "EnabledThreadsHeuristic",
    "IterativeContextBounding",
    "IterativeDeepening",
    "PCTScheduler",
    "PlanError",
    "RandomWalk",
    "SleepSetDFS",
    "SearchContext",
    "SearchLimits",
    "SearchResult",
    "Strategy",
    "WorkItemCache",
]
