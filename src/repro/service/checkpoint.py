"""Durable checkpoints of a live ICB search (format v2).

A checkpoint freezes everything the iterative context-bounding loop
needs to continue after process death: the current preemption bound,
the two work queues (current-bound frontier and next-bound deferrals,
both as replayable ``(schedule, tid)`` pairs), the accumulated :class:`~repro.search.strategy.SearchContext` statistics
(states, deduplicated bugs, counters, coverage history), the optional
work-item cache, and a frozen :class:`~repro.obs.metrics.MetricsSnapshot`.

**Exactness.**  Checkpoints are only ever taken *between* work items
(serial engine) or at shard boundaries (parallel engine), never in the
middle of one.  Work performed after the last checkpoint dies with the
process and is simply redone on resume, so an interrupted-then-resumed
run reports exactly the executions, distinct states, certified bound
and ``BugReport.identity`` set of an uninterrupted run -- the property
``tests/service`` asserts over every buggy builtin.

**Identity.**  A checkpoint binds to a search via a *fingerprint*:
program name + thread-structure hash, the replay-relevant
``ExecutionConfig`` knobs and the strategy shape (name, state
caching).  State fingerprints are pure functions of program
state (see ``Execution.fingerprint``), so any process can resume any
checkpoint of the same search.  Version 1 files hold fingerprints from
an earlier, hash-seed-dependent scheme and are refused: they cannot be
resumed, only re-run.  Budgets (``SearchLimits``) and ``max_bound`` are
deliberately *excluded* from the fingerprint: resuming an interrupted
run with a bigger budget or a deeper bound is the point of the
exercise.

The on-disk representation is versioned JSON over the shared codec of
:mod:`repro.persist`, written atomically so a crash mid-save leaves
the previous checkpoint intact.  See ``docs/service.md`` for the full
schema.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.execution import ExecutionConfig
from ..core.program import Program
from ..core.thread import ThreadId
from ..errors import ReproError
from ..obs.instrument import Instrumentation
from ..obs.metrics import SEARCH_TOTALS, MetricsSnapshot
from ..persist import Decoder, ThreadTable, context_to_json, write_atomic
from ..search.statecache import WorkItemCache
from ..search.plan import CheckPlan
from ..search.strategy import SearchContext

#: Identifies a file as a checkpoint regardless of extension.
CHECKPOINT_FORMAT = "repro-checkpoint"
#: Bumped on every incompatible schema change; loaders reject unknown
#: versions instead of guessing.
CHECKPOINT_VERSION = 2
#: v1 fingerprints came from the hash-seed-dependent ``hash()``.
_V1_REFUSED = "; v1 state fingerprints cannot be resumed: delete it and re-run the check"
#: Canonical file suffix for checkpoint files.
CHECKPOINT_SUFFIX = ".ckpt.json"

#: Default save cadence of the serial engine, in processed work items.
DEFAULT_STRIDE = 128

#: One ICB work-queue entry: ``(state, tid)``, optionally followed by
#: the state's fingerprint.  A stateless state *is* its schedule.
QueueEntry = Sequence[Any]


class CheckpointError(ReproError):
    """A checkpoint file violates the schema (or cannot be written)."""


class CheckpointMismatch(CheckpointError):
    """A checkpoint belongs to a different search than the one resuming.

    Raised when the program fingerprint, execution config or strategy
    shape recorded in the checkpoint disagrees with the resuming
    process.  Resuming anyway would silently corrupt state and bug
    accounting, so this is always fatal.
    """


_DECODE = Decoder(CheckpointError)


def search_fingerprint(
    program: Program,
    config: Optional[ExecutionConfig] = None,
    **fields: Any,
) -> Dict[str, Any]:
    """The identity a checkpoint binds to: the
    :meth:`~repro.search.plan.CheckPlan.fingerprint` of the plan whose
    fields are ``fields``."""
    return CheckPlan(**fields).fingerprint(program, config)


def _pairs_to_json(
    items: Iterable[QueueEntry], table: ThreadTable
) -> List[Dict[str, Any]]:
    # ``preemptions`` is advisory and always 0: the replay recomputes it.
    # A fingerprint carried as a third element (see
    # IterativeContextBounding._search_item) is dropped: a resumed item
    # recomputes it.
    return [
        {"schedule": table.schedule(item[0]), "tid": table.index(item[1]), "preemptions": 0}
        for item in items
    ]


def _pairs_from_json(
    data: Any, threads: List[ThreadId], key: str
) -> Tuple[QueueEntry, ...]:
    pairs: List[QueueEntry] = []
    for i, entry in enumerate(_DECODE.require(data, key, list, "checkpoint")):
        where = f"{key}[{i}]"
        schedule = _DECODE.schedule(
            entry.get("schedule") if isinstance(entry, dict) else None,
            threads,
            f"{where}.schedule",
        )
        tid = _DECODE.thread(_DECODE.require(entry, "tid", int, where), threads, where)
        pairs.append((schedule, tid))
    return tuple(pairs)


@dataclass
class Checkpoint:
    """One frozen snapshot of a live ICB search (see module docstring)."""

    fingerprint: Dict[str, Any]
    bound: int
    completed_bound: Optional[int]
    #: The two ICB work queues (loaded ones hold ``(schedule, tid)``
    #: pairs).
    work_items: Tuple[QueueEntry, ...]
    next_items: Tuple[QueueEntry, ...]
    #: The accumulated statistics.  A captured checkpoint holds the
    #: live context, so it is saved before the search continues; a
    #: loaded one holds its own.
    context: SearchContext
    #: Serialized work-item cache (``None`` when state caching is off).
    cache: Optional[Dict[str, Any]] = None
    #: Frozen metrics at save time (``None`` for uninstrumented runs).
    metrics: Optional[MetricsSnapshot] = None
    #: Parallel bookkeeping extras (shards, retries, ...) carried so a
    #: resumed coordinator run reports cumulative numbers.
    parallel: Dict[str, int] = field(default_factory=dict)
    sequence: int = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def capture(
        cls,
        fingerprint: Dict[str, Any],
        bound: int,
        work_items: Iterable[QueueEntry],
        next_items: Iterable[QueueEntry],
        ctx: SearchContext,
        completed_bound: Optional[int],
        cache: Optional[WorkItemCache] = None,
        metrics: Optional[MetricsSnapshot] = None,
        parallel: Optional[Dict[str, int]] = None,
        sequence: int = 0,
    ) -> "Checkpoint":
        """Snapshot a search between work items."""
        for fp in ctx.states:
            if type(fp) is not int:
                raise CheckpointError(
                    "only integer state fingerprints can be checkpointed "
                    f"(got {type(fp).__name__})"
                )
        return cls(
            fingerprint=dict(fingerprint),
            bound=bound,
            completed_bound=completed_bound,
            work_items=tuple(work_items),
            next_items=tuple(next_items),
            context=ctx,
            cache=cache.export_state() if cache is not None else None,
            metrics=metrics,
            parallel=dict(parallel or {}),
            sequence=sequence,
        )

    # -- serialization ------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        # Thread indices follow first mention: queues, bugs, cache.
        table = ThreadTable()
        work = _pairs_to_json(self.work_items, table)
        nxt = _pairs_to_json(self.next_items, table)
        context = context_to_json(self.context, table)
        cache_json: Optional[Dict[str, Any]] = None
        if self.cache is not None:
            cache_json = {
                "items": [[fp, table.index(tid)] for fp, tid in self.cache["items"]],
                "hits": self.cache["hits"],
                "misses": self.cache["misses"],
            }
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "sequence": self.sequence,
            "bound": self.bound,
            "completed_bound": self.completed_bound,
            "threads": table.to_json(),
            "work_items": work,
            "next_items": nxt,
            "context": context,
            "cache": cache_json,
            "metrics": self.metrics.to_dict() if self.metrics is not None else None,
            "parallel": dict(self.parallel),
        }

    @classmethod
    def from_json(cls, data: Any) -> "Checkpoint":
        if not isinstance(data, dict):
            raise CheckpointError(
                f"checkpoint must be a JSON object, got {type(data).__name__}"
            )
        where = "checkpoint"
        fmt = _DECODE.require(data, "format", str, where)
        if fmt != CHECKPOINT_FORMAT:
            raise CheckpointError(f"not a {CHECKPOINT_FORMAT} file (format={fmt!r})")
        version = _DECODE.require(data, "version", int, where)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version} "
                f"(this build reads {CHECKPOINT_VERSION})"
                + (_V1_REFUSED if version == 1 else "")
            )
        fingerprint = _DECODE.require(data, "fingerprint", dict, where)
        threads = _DECODE.threads(data, where)
        context = _DECODE.context(
            _DECODE.require(data, "context", dict, where), threads, SearchContext()
        )
        cache_raw = data.get("cache")
        cache: Optional[Dict[str, Any]] = None
        if cache_raw is not None:
            cache = {
                "items": [
                    (fp, _DECODE.thread(tid, threads, f"cache.items[{i}]"))
                    for i, (fp, tid) in enumerate(
                        _DECODE.int_pairs(cache_raw, "items", "cache", "[fingerprint, thread-index]")
                    )
                ],
                "hits": _DECODE.require(cache_raw, "hits", int, "cache"),
                "misses": _DECODE.require(cache_raw, "misses", int, "cache"),
            }
        metrics_raw = data.get("metrics")
        metrics = (
            MetricsSnapshot.from_dict(metrics_raw) if metrics_raw is not None else None
        )
        parallel_raw = data.get("parallel") or {}
        if not isinstance(parallel_raw, dict):
            raise CheckpointError("parallel must be an object")
        parallel = {
            str(k): v for k, v in parallel_raw.items() if type(v) is int
        }
        return cls(
            fingerprint=fingerprint,
            bound=_DECODE.require(data, "bound", int, where),
            completed_bound=_DECODE.optional_int(data, "completed_bound"),
            work_items=_pairs_from_json(data, threads, "work_items"),
            next_items=_pairs_from_json(data, threads, "next_items"),
            context=context,
            cache=cache,
            metrics=metrics,
            parallel=parallel,
            sequence=_DECODE.require(data, "sequence", int, where),
        )

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Atomically persist this checkpoint (temp file + rename)."""
        target = pathlib.Path(path)
        try:
            write_atomic(target, json.dumps(self.to_json(), sort_keys=True) + "\n")
        except OSError as exc:
            raise CheckpointError(f"cannot write checkpoint {target}: {exc}") from exc
        return target

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "Checkpoint":
        return cls.from_json(_DECODE.read_json(pathlib.Path(path), "checkpoint"))

    # -- resuming -----------------------------------------------------------

    def validate(self, fingerprint: Dict[str, Any]) -> None:
        """Fail with :class:`CheckpointMismatch` unless this checkpoint
        belongs to the search described by ``fingerprint``."""
        saved = self.fingerprint
        differing = sorted(
            key for key in set(saved) | set(fingerprint) if saved.get(key) != fingerprint.get(key)
        )
        if differing:
            raise CheckpointMismatch(
                "checkpoint belongs to a different search "
                f"(differs in: {', '.join(differing)})"
            )

    def restore_context(self, ctx: SearchContext) -> None:
        """Install this checkpoint's statistics into a live context.

        The context is fresh apart from the ``record_initial`` call the
        strategy driver already made (whose state the checkpoint holds
        too), so folding the saved statistics in with
        :meth:`~repro.search.strategy.SearchContext.absorb` installs
        them.  When the context is instrumented, the saved metrics
        snapshot is absorbed without its search totals and without
        ``searches``: the resumed search reports the totals from
        ``ctx`` when it finishes and counts itself when it starts.  Its
        phase profile is left out too: the resumed run's shares are of
        its own elapsed time.
        """
        saved = self.context
        ctx.absorb(saved)
        obs = ctx.obs
        if obs is not None:
            metrics = self.metrics
            if metrics is not None:
                counters = {
                    name: value
                    for name, value in metrics.counters.items()
                    if name not in SEARCH_TOTALS and name != "searches"
                }
                obs.metrics.absorb(
                    replace(metrics, counters=counters, states_by_bound={}, profile={})
                )
            obs.checkpoint_resumed(
                self.sequence, self.bound, saved.executions, saved.transitions
            )

    def restore_cache(self, cache: WorkItemCache) -> None:
        if self.cache is not None:
            cache.restore_state(
                self.cache["items"], self.cache["hits"], self.cache["misses"]
            )


class Checkpointer:
    """Save/resume driver handed to the search engines.

    One instance manages one checkpoint file.  The serial ICB loop
    calls :meth:`note_item` after every processed work item and saves
    when the stride elapses; both engines call :meth:`save_state` at
    forced save points (bound completions, shard requeues).  The file
    is loaded at most once, via :meth:`resume_state`, and validated
    against this checkpointer's fingerprint.
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        fingerprint: Dict[str, Any],
        stride: int = DEFAULT_STRIDE,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.fingerprint = dict(fingerprint)
        self.stride = max(1, stride)
        self.obs = obs
        self.sequence = 0
        self._since_save = 0
        self._resumed: Optional[Checkpoint] = None
        self._loaded = False
        #: The registry as this search found it: a registry shared by
        #: several searches holds the earlier ones' counts too, and a
        #: checkpoint saves only what this search added.
        self._base = obs.snapshot() if obs is not None else None

    # -- resuming -----------------------------------------------------------

    def resume_state(self) -> Optional[Checkpoint]:
        """The validated checkpoint to continue from, if one exists."""
        if not self._loaded:
            self._loaded = True
            if self.path.exists():
                checkpoint = Checkpoint.load(self.path)
                checkpoint.validate(self.fingerprint)
                self.sequence = checkpoint.sequence
                self._resumed = checkpoint
        return self._resumed

    # -- saving -------------------------------------------------------------

    def note_item(self) -> bool:
        """Count one processed work item; True when a save is due."""
        self._since_save += 1
        return self._since_save >= self.stride

    def save_state(
        self,
        bound: int,
        work_items: Iterable[QueueEntry],
        next_items: Iterable[QueueEntry],
        ctx: SearchContext,
        completed_bound: Optional[int],
        cache: Optional[WorkItemCache] = None,
        parallel: Optional[Dict[str, int]] = None,
    ) -> Checkpoint:
        """Capture and atomically persist the current search state."""
        metrics = None
        if ctx.obs is not None:
            metrics = ctx.obs.snapshot()
            if self._base is not None:
                metrics = metrics.since(self._base)
        self.sequence += 1
        self._since_save = 0
        checkpoint = Checkpoint.capture(
            self.fingerprint,
            bound,
            work_items,
            next_items,
            ctx,
            completed_bound,
            cache=cache,
            metrics=metrics,
            parallel=parallel,
            sequence=self.sequence,
        )
        checkpoint.save(self.path)
        obs = self.obs or ctx.obs
        if obs is not None:
            obs.checkpoint_saved(
                self.sequence,
                bound,
                len(checkpoint.work_items),
                len(checkpoint.next_items),
                ctx.executions,
            )
        return checkpoint

    def clear(self) -> None:
        """Remove the checkpoint file (the run completed)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
