"""Durable checkpoints of a live ICB search (format v2).

A checkpoint freezes everything the iterative context-bounding loop
needs to continue after process death: the current preemption bound,
the two work queues (current-bound frontier and next-bound deferrals,
both as replayable :class:`~repro.parallel.workitem.WorkItem` s), the
accumulated :class:`~repro.search.strategy.SearchContext` statistics
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
``ExecutionConfig`` knobs and the strategy shape (name, state caching,
analysis reduction).  State fingerprints are pure functions of program
state (see ``Execution.fingerprint``), so any process can resume any
checkpoint of the same search.  Version 1 files hold fingerprints from
an earlier, hash-seed-dependent scheme and are refused: they cannot be
resumed, only re-run.  Budgets (``SearchLimits``) and ``max_bound`` are
deliberately *excluded* from the fingerprint: resuming an interrupted
run with a bigger budget or a deeper bound is the point of the
exercise.

The on-disk representation is versioned JSON, written atomically
(temp file + ``os.replace``) so a crash mid-save leaves the previous
checkpoint intact.  See ``docs/service.md`` for the full schema.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.execution import ExecutionConfig
from ..core.program import Program
from ..core.thread import ThreadId
from ..errors import BugKind, BugReport, ReproError
from ..obs.instrument import Instrumentation
from ..obs.metrics import MetricsSnapshot
from ..parallel.workitem import WorkItem
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


class CheckpointError(ReproError):
    """A checkpoint file violates the schema (or cannot be written)."""


class CheckpointMismatch(CheckpointError):
    """A checkpoint belongs to a different search than the one resuming.

    Raised when the program fingerprint, execution config or strategy
    shape recorded in the checkpoint disagrees with the resuming
    process.  Resuming anyway would silently corrupt state and bug
    accounting, so this is always fatal.
    """


def _require(data: Dict[str, Any], key: str, kind: type, where: str) -> Any:
    if not isinstance(data, dict) or key not in data:
        raise CheckpointError(f"{where}: missing required key {key!r}")
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise CheckpointError(
            f"{where}: key {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def search_fingerprint(
    program: Program,
    config: Optional[ExecutionConfig] = None,
    analysis: bool = False,
    **fields: Any,
) -> Dict[str, Any]:
    """The identity a checkpoint binds to: the
    :meth:`~repro.search.plan.CheckPlan.fingerprint` of the plan whose
    fields are ``fields``."""
    return CheckPlan(**fields).fingerprint(program, config, analysis)


class _ThreadTable:
    """Deduplicating encoder for :class:`ThreadId` s in one checkpoint."""

    def __init__(self) -> None:
        self.threads: List[ThreadId] = []
        self._index: Dict[ThreadId, int] = {}

    def index(self, tid: ThreadId) -> int:
        known = self._index.get(tid)
        if known is None:
            known = self._index[tid] = len(self.threads)
            self.threads.append(tid)
        return known

    def encode_schedule(self, schedule: Iterable[ThreadId]) -> List[int]:
        return [self.index(tid) for tid in schedule]

    def to_json(self) -> List[Dict[str, Any]]:
        return [{"path": list(t.path), "label": t.label} for t in self.threads]

    @staticmethod
    def decode(data: Any, where: str) -> List[ThreadId]:
        if not isinstance(data, list):
            raise CheckpointError(f"{where}: threads must be a list")
        threads: List[ThreadId] = []
        for i, entry in enumerate(data):
            path = _require(entry, "path", list, f"{where}[{i}]")
            label = _require(entry, "label", str, f"{where}[{i}]")
            try:
                threads.append(ThreadId.from_path(path, label))
            except ValueError as exc:
                raise CheckpointError(f"{where}[{i}]: {exc}") from exc
        return threads


def _decode_schedule(
    data: Any, threads: List[ThreadId], where: str
) -> Tuple[ThreadId, ...]:
    if not isinstance(data, list):
        raise CheckpointError(f"{where}: schedule must be a list")
    out: List[ThreadId] = []
    for i, idx in enumerate(data):
        if not isinstance(idx, int) or isinstance(idx, bool) or not (
            0 <= idx < len(threads)
        ):
            raise CheckpointError(
                f"{where}[{i}]: index {idx!r} out of range for "
                f"{len(threads)} thread(s)"
            )
        out.append(threads[idx])
    return tuple(out)


def _sanitize_detail(value: Any) -> Any:
    """Reduce a bug-detail value to JSON primitives.

    Details never participate in bug signatures or identities, so a
    lossy ``str()`` fallback cannot affect dedup or parity -- only the
    human-facing rendering of exotic payloads.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_sanitize_detail(v) for v in value]
    return str(value)


def _bug_to_json(bug: BugReport, table: _ThreadTable) -> Dict[str, Any]:
    return {
        "kind": bug.kind.value,
        "message": bug.message,
        "thread": table.index(bug.thread) if bug.thread is not None else None,
        "schedule": table.encode_schedule(bug.schedule),
        "preemptions": bug.preemptions,
        "step_index": bug.step_index,
        "details": [[key, _sanitize_detail(value)] for key, value in bug.details],
    }


def _bug_from_json(data: Any, threads: List[ThreadId], where: str) -> BugReport:
    try:
        kind = BugKind(_require(data, "kind", str, where))
    except ValueError as exc:
        raise CheckpointError(f"{where}: {exc}") from exc
    thread_raw = data.get("thread") if isinstance(data, dict) else None
    if thread_raw is not None:
        if not isinstance(thread_raw, int) or isinstance(thread_raw, bool) or not (
            0 <= thread_raw < len(threads)
        ):
            raise CheckpointError(f"{where}: thread index {thread_raw!r} out of range")
        thread: Optional[ThreadId] = threads[thread_raw]
    else:
        thread = None
    details_raw = _require(data, "details", list, where)
    details: List[Tuple[str, Any]] = []
    for i, pair in enumerate(details_raw):
        if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], str):
            raise CheckpointError(f"{where}: details[{i}] must be a [key, value] pair")
        value = pair[1]
        details.append((pair[0], tuple(value) if isinstance(value, list) else value))
    return BugReport(
        kind=kind,
        message=_require(data, "message", str, where),
        thread=thread,
        schedule=_decode_schedule(data.get("schedule"), threads, f"{where}.schedule"),
        preemptions=_require(data, "preemptions", int, where),
        step_index=_require(data, "step_index", int, where),
        details=tuple(details),
    )


def _items_to_json(
    items: Sequence[WorkItem], table: _ThreadTable
) -> List[Dict[str, Any]]:
    return [
        {
            "schedule": table.encode_schedule(item.schedule),
            "tid": table.index(item.tid),
            "preemptions": item.preemptions,
        }
        for item in items
    ]


def _items_from_json(
    data: Any, threads: List[ThreadId], where: str
) -> Tuple[WorkItem, ...]:
    if not isinstance(data, list):
        raise CheckpointError(f"{where}: must be a list")
    items: List[WorkItem] = []
    for i, entry in enumerate(data):
        schedule = _decode_schedule(
            entry.get("schedule") if isinstance(entry, dict) else None,
            threads,
            f"{where}[{i}].schedule",
        )
        tid_idx = _require(entry, "tid", int, f"{where}[{i}]")
        if not (0 <= tid_idx < len(threads)):
            raise CheckpointError(f"{where}[{i}]: tid index {tid_idx!r} out of range")
        items.append(
            WorkItem(
                schedule=schedule,
                tid=threads[tid_idx],
                preemptions=_require(entry, "preemptions", int, f"{where}[{i}]"),
            )
        )
    return tuple(items)


def normalize_items(raw_items: Iterable[Tuple[object, ThreadId]]) -> List[WorkItem]:
    """Wrap the serial engine's raw ``(state, tid)`` queue entries.

    A stateless state *is* its schedule, so ``tuple(state)`` is the
    replay recipe; the preemption count is advisory (``as_pair``
    discards it on the way back in) and recorded as zero.  A
    fingerprint carried as a third element (see
    :meth:`~repro.search.icb.IterativeContextBounding._search_item`)
    is dropped: a resumed item recomputes it.
    """
    return [
        WorkItem(schedule=tuple(item[0]), tid=item[1])  # type: ignore[arg-type]
        for item in raw_items
    ]


@dataclass
class Checkpoint:
    """One frozen snapshot of a live ICB search (see module docstring)."""

    fingerprint: Dict[str, Any]
    bound: int
    completed_bound: Optional[int]
    work_items: Tuple[WorkItem, ...]
    next_items: Tuple[WorkItem, ...]
    executions: int
    transitions: int
    analysis_pruned: int
    max_steps: int
    max_blocking: int
    max_preemptions: int
    #: state fingerprint -> minimal preemption count (the ground truth
    #: every resumed statistic reconciles against).
    states: Dict[int, int]
    bugs: Tuple[BugReport, ...]
    history: Tuple[Tuple[int, int], ...]
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
        work_items: Sequence[WorkItem],
        next_items: Sequence[WorkItem],
        ctx: SearchContext,
        completed_bound: Optional[int],
        cache: Optional[WorkItemCache] = None,
        metrics: Optional[MetricsSnapshot] = None,
        parallel: Optional[Dict[str, int]] = None,
        sequence: int = 0,
    ) -> "Checkpoint":
        states: Dict[int, int] = {}
        for fp, preemptions in ctx.states.items():
            if not isinstance(fp, int) or isinstance(fp, bool):
                raise CheckpointError(
                    "only integer state fingerprints can be checkpointed "
                    f"(got {type(fp).__name__})"
                )
            states[fp] = preemptions
        cache_state: Optional[Dict[str, Any]] = None
        if cache is not None:
            cache_state = cache.export_state()
        return cls(
            fingerprint=dict(fingerprint),
            bound=bound,
            completed_bound=completed_bound,
            work_items=tuple(work_items),
            next_items=tuple(next_items),
            executions=ctx.executions,
            transitions=ctx.transitions,
            analysis_pruned=ctx.analysis_pruned,
            max_steps=ctx.max_steps,
            max_blocking=ctx.max_blocking,
            max_preemptions=ctx.max_preemptions,
            states=states,
            bugs=tuple(ctx.bugs.values()),
            history=tuple(ctx.history),
            cache=cache_state,
            metrics=metrics,
            parallel=dict(parallel or {}),
            sequence=sequence,
        )

    # -- serialization ------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        table = _ThreadTable()
        work = _items_to_json(self.work_items, table)
        nxt = _items_to_json(self.next_items, table)
        bugs = [_bug_to_json(bug, table) for bug in self.bugs]
        cache_json: Optional[Dict[str, Any]] = None
        if self.cache is not None:
            cache_json = {
                "items": [
                    [fp, table.index(tid)] for fp, tid in self.cache["items"]
                ],
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
            "context": {
                "executions": self.executions,
                "transitions": self.transitions,
                "analysis_pruned": self.analysis_pruned,
                "max_steps": self.max_steps,
                "max_blocking": self.max_blocking,
                "max_preemptions": self.max_preemptions,
                "states": [[fp, pre] for fp, pre in sorted(self.states.items())],
                "bugs": bugs,
                "history": [[e, s] for e, s in self.history],
            },
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
        fmt = _require(data, "format", str, where)
        if fmt != CHECKPOINT_FORMAT:
            raise CheckpointError(f"not a {CHECKPOINT_FORMAT} file (format={fmt!r})")
        version = _require(data, "version", int, where)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version} "
                f"(this build reads {CHECKPOINT_VERSION})"
                + (_V1_REFUSED if version == 1 else "")
            )
        fingerprint = _require(data, "fingerprint", dict, where)
        threads = _ThreadTable.decode(_require(data, "threads", list, where), "threads")
        context = _require(data, "context", dict, where)
        states_raw = _require(context, "states", list, "context")
        states: Dict[int, int] = {}
        for i, pair in enumerate(states_raw):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
            ):
                raise CheckpointError(
                    f"context.states[{i}] must be a [fingerprint, bound] int pair"
                )
            states[pair[0]] = pair[1]
        bugs_raw = _require(context, "bugs", list, "context")
        bugs = tuple(
            _bug_from_json(entry, threads, f"context.bugs[{i}]")
            for i, entry in enumerate(bugs_raw)
        )
        history_raw = _require(context, "history", list, "context")
        history: List[Tuple[int, int]] = []
        for i, pair in enumerate(history_raw):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
            ):
                raise CheckpointError(
                    f"context.history[{i}] must be an [executions, states] int pair"
                )
            history.append((pair[0], pair[1]))
        completed_bound = data.get("completed_bound")
        if completed_bound is not None and (
            not isinstance(completed_bound, int) or isinstance(completed_bound, bool)
        ):
            raise CheckpointError("completed_bound must be an integer or null")
        cache_raw = data.get("cache")
        cache: Optional[Dict[str, Any]] = None
        if cache_raw is not None:
            items_raw = _require(cache_raw, "items", list, "cache")
            cache_items: List[Tuple[int, ThreadId]] = []
            for i, pair in enumerate(items_raw):
                if (
                    not isinstance(pair, list)
                    or len(pair) != 2
                    or not isinstance(pair[0], int)
                    or isinstance(pair[0], bool)
                    or not isinstance(pair[1], int)
                    or isinstance(pair[1], bool)
                    or not (0 <= pair[1] < len(threads))
                ):
                    raise CheckpointError(
                        f"cache.items[{i}] must be a [fingerprint, thread-index] pair"
                    )
                cache_items.append((pair[0], threads[pair[1]]))
            cache = {
                "items": cache_items,
                "hits": _require(cache_raw, "hits", int, "cache"),
                "misses": _require(cache_raw, "misses", int, "cache"),
            }
        metrics_raw = data.get("metrics")
        metrics = (
            MetricsSnapshot.from_dict(metrics_raw) if metrics_raw is not None else None
        )
        parallel_raw = data.get("parallel") or {}
        if not isinstance(parallel_raw, dict):
            raise CheckpointError("parallel must be an object")
        parallel = {
            str(k): v
            for k, v in parallel_raw.items()
            if isinstance(v, int) and not isinstance(v, bool)
        }
        return cls(
            fingerprint=fingerprint,
            bound=_require(data, "bound", int, where),
            completed_bound=completed_bound,
            work_items=_items_from_json(
                _require(data, "work_items", list, where), threads, "work_items"
            ),
            next_items=_items_from_json(
                _require(data, "next_items", list, where), threads, "next_items"
            ),
            executions=_require(context, "executions", int, "context"),
            transitions=_require(context, "transitions", int, "context"),
            analysis_pruned=_require(context, "analysis_pruned", int, "context"),
            max_steps=_require(context, "max_steps", int, "context"),
            max_blocking=_require(context, "max_blocking", int, "context"),
            max_preemptions=_require(context, "max_preemptions", int, "context"),
            states=states,
            bugs=bugs,
            history=tuple(history),
            cache=cache,
            metrics=metrics,
            parallel=parallel,
            sequence=_require(data, "sequence", int, where),
        )

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Atomically persist this checkpoint (temp file + rename)."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self.to_json(), sort_keys=True)
        tmp = target.with_name(target.name + ".tmp")
        try:
            tmp.write_text(payload + "\n")
            os.replace(tmp, target)
        except OSError as exc:
            raise CheckpointError(f"cannot write checkpoint {target}: {exc}") from exc
        return target

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "Checkpoint":
        source = pathlib.Path(path)
        try:
            text = source.read_text()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {source}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
        return cls.from_json(data)

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

        Overwrites (rather than merges) every accumulated quantity:
        the context is expected to be fresh apart from the
        ``record_initial`` call the strategy driver already made.  When
        the context is instrumented, the saved metrics snapshot is
        absorbed and state/bug counts reconciled from the restored
        ground truth, so resumed metrics line up with the context.
        """
        ctx.states = dict(self.states)
        ctx.bugs = {bug.signature: bug for bug in self.bugs}
        ctx.executions = self.executions
        ctx.transitions = self.transitions
        ctx.analysis_pruned = self.analysis_pruned
        ctx.max_steps = self.max_steps
        ctx.max_blocking = self.max_blocking
        ctx.max_preemptions = self.max_preemptions
        ctx.history = list(self.history)
        obs = ctx.obs
        if obs is not None:
            if self.metrics is not None:
                obs.metrics.absorb(self.metrics)
            else:
                # Uninstrumented save, instrumented resume: recover the
                # totals (per-bound execution breakdowns are lost).
                obs.metrics.add("executions", self.executions)
                obs.metrics.add("transitions", self.transitions)
            obs.metrics.reconcile_states(ctx.states_by_bound(), bugs=len(ctx.bugs))
            obs.checkpoint_resumed(
                self.sequence, self.bound, self.executions, self.transitions
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
        work_items: Sequence[WorkItem],
        next_items: Sequence[WorkItem],
        ctx: SearchContext,
        completed_bound: Optional[int],
        cache: Optional[WorkItemCache] = None,
        metrics: Optional[MetricsSnapshot] = None,
        parallel: Optional[Dict[str, int]] = None,
    ) -> Checkpoint:
        """Capture and atomically persist the current search state."""
        if metrics is None and ctx.obs is not None:
            metrics = ctx.obs.snapshot()
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
                self.sequence, bound, len(work_items), len(next_items), ctx.executions
            )
        return checkpoint

    def clear(self) -> None:
        """Remove the checkpoint file (the run completed)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
