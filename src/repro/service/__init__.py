"""The durable checking service (see ``docs/service.md``).

Three layers turn the checker into infrastructure you can kill,
restart and resubmit to without losing or repeating work:

* :mod:`repro.service.checkpoint` -- versioned on-disk snapshots of a
  live ICB search.  Both engines (serial
  :class:`~repro.search.icb.IterativeContextBounding` and the
  :class:`~repro.parallel.coordinator.ParallelCoordinator`) journal
  their frontier and resume from it; an interrupted-then-resumed run
  reports exactly what an uninterrupted one would.
* :mod:`repro.service.cache` -- a content-addressed store of completed
  results, served only to a check with the same plan.
* :mod:`repro.service.jobs` / :mod:`repro.service.daemon` -- a
  crash-safe JSONL job queue and the ``repro serve`` loop dispatching
  it, with submissions deduplicated and died-mid-run jobs requeued.
"""

from .cache import (
    RESULT_CACHE_FORMAT,
    RESULT_CACHE_SUFFIX,
    RESULT_CACHE_VERSION,
    ResultCache,
    ResultCacheError,
    result_cache_key,
)
from .checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_SUFFIX,
    CHECKPOINT_VERSION,
    DEFAULT_STRIDE,
    Checkpoint,
    CheckpointError,
    CheckpointMismatch,
    Checkpointer,
    search_fingerprint,
)
from .daemon import CheckingService, resolve_spec
from .jobs import Job, JobQueue, JobQueueError

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_SUFFIX",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointMismatch",
    "Checkpointer",
    "CheckingService",
    "DEFAULT_STRIDE",
    "Job",
    "JobQueue",
    "JobQueueError",
    "RESULT_CACHE_FORMAT",
    "RESULT_CACHE_SUFFIX",
    "RESULT_CACHE_VERSION",
    "ResultCache",
    "ResultCacheError",
    "result_cache_key",
    "resolve_spec",
    "search_fingerprint",
]
