"""Serializable units of parallel exploration work.

The stateless checker makes parallel search almost trivial: a frontier
state *is* its schedule, so any process can reconstruct it by
deterministic replay through :class:`~repro.core.execution.Execution`.
Shards therefore carry the serial ICB work queue's own entries,
``(schedule_prefix, next_tid)`` pairs -- the same pairs checkpoints
persist.

Everything in this module must stay picklable with the standard
library pickler: shard tasks and outcomes cross process boundaries
through ``multiprocessing`` queues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..core.execution import Schedule
from ..core.thread import ThreadId
from ..search.strategy import SearchContext

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..obs.metrics import MetricsSnapshot

#: One ICB work-queue entry of a stateless space: ``(schedule, tid)``.
Pair = Tuple[Schedule, ThreadId]


@dataclass(frozen=True)
class ShardTask:
    """A batch of work-queue entries dispatched to one worker.

    ``attempt`` counts prior dispatches of this shard: the coordinator
    bumps it on every crash requeue, so a requeued task is
    distinguishable from the original.  Targeted fault injection (the
    worker-killed-twice robustness tests) keys on it.
    """

    shard_id: int
    bound: int
    items: Tuple[Pair, ...]
    attempt: int = 0


@dataclass
class ShardOutcome:
    """What a worker reports back for one explored shard.

    ``context`` carries the shard's statistics, which the coordinator
    folds into the run's live context with
    :meth:`~repro.search.strategy.SearchContext.absorb`; ``deferred``
    holds the next-bound entries the shard produced.
    """

    shard_id: int
    completed: bool
    stop_reason: str
    context: SearchContext
    deferred: Tuple[Pair, ...] = ()
    #: Frozen per-shard metrics when the run is instrumented
    #: (``None`` otherwise); the coordinator absorbs these into the
    #: run's metrics.
    metrics: Optional["MetricsSnapshot"] = None


@dataclass
class ShardState:
    """Coordinator-side tracking of one outstanding shard."""

    task: ShardTask
    retries: int = 0
    worker_id: Optional[int] = None
    claimed_at: Optional[float] = None


def chunk_frontier(items: Sequence[Pair], shards: int) -> List[Tuple[Pair, ...]]:
    """Partition a frontier into at most ``shards`` contiguous chunks."""

    if not items:
        return []
    size = max(1, -(-len(items) // max(1, shards)))
    return [tuple(items[i : i + size]) for i in range(0, len(items), size)]
