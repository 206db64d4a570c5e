"""Multiprocess frontier-sharded exploration of the ICB search.

The subsystem has three layers:

* :mod:`repro.parallel.workitem` -- serializable shards: a frontier
  state is its schedule prefix, reconstructible anywhere by
  deterministic replay;
* :mod:`repro.parallel.worker` -- the worker process loop, reusing the
  serial per-item ICB exploration so parallel and serial runs explore
  identical executions;
* :mod:`repro.parallel.coordinator` -- ``ParallelCoordinator``, the
  serial ICB loop with its per-bound step replaced by shard dispatch
  behind a barrier (preserving the paper's minimal-preemption
  guarantee), global budget enforcement and crash/timeout recovery.

See ``docs/parallel.md`` for the architecture and the bound-barrier
argument.
"""

from .coordinator import ParallelCoordinator, ParallelSettings
from .workitem import ShardOutcome, ShardTask

__all__ = [
    "ParallelCoordinator",
    "ParallelSettings",
    "ShardOutcome",
    "ShardTask",
]
