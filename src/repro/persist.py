"""The one codec of everything a search writes to disk.

CHESS is stateless (Sections 2-3 of the paper): a state *is* its
schedule.  So every file a search leaves behind is built from the same
few things -- ``ThreadId`` schedules, :class:`~repro.errors.BugReport`
s and the :class:`~repro.search.strategy.SearchContext` statistics --
whether it is a witness trace (:mod:`repro.trace.format`), a resumable
Algorithm-1 frontier (:mod:`repro.service.checkpoint`) or a finished
result (:mod:`repro.service.cache`).  This module encodes those things
once; each format keeps only its envelope (format name, version, the
keys only it has) and its own error type.

* **Threads and schedules.**  A :class:`ThreadTable` collects the
  distinct ``(path, label)`` pairs a document mentions, and schedules
  are lists of indices into it, rebuilt on load through
  :meth:`~repro.core.thread.ThreadId.from_path`.
* **Bugs.**  :func:`bug_to_json` / :meth:`Decoder.bug`.
* **Statistics.**  :func:`context_to_json` / :meth:`Decoder.context`,
  and a result's extras, :func:`extras_to_json` /
  :meth:`Decoder.extras`.  Distinct states are ``[fingerprint, bound]``
  pairs, or -- for cache entries, whose verdicts need only the counts
  -- a per-bound histogram served back as synthetic
  ``("cached", bound, i)`` fingerprints.
* **Files.**  :func:`write_atomic` (temp file + ``os.replace``, so a
  reader or a crash sees the old file or the new one, never half) and
  :meth:`Decoder.read_json`.

Decoding is straight-line and strict: a :class:`Decoder` raises its
format's error naming the failing key, never a bare
``KeyError``/``TypeError``.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple, Type

from .core.thread import ThreadId
from .errors import BugKind, BugReport, ReproError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .search.strategy import SearchContext


def write_atomic(target: pathlib.Path, text: str) -> None:
    """Replace ``target`` with ``text`` (temp file + ``os.replace``).

    The temp name carries the process id, so two processes storing the
    same content-addressed object never write into each other's file.
    Raises ``OSError``; callers wrap it in their format's error.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, target)


def sanitize(value: Any) -> Any:
    """Reduce a bug-detail or extras value to JSON primitives.

    Details never participate in bug signatures or identities, so a
    lossy ``str()`` fallback cannot affect dedup or parity -- only the
    human-facing rendering of exotic payloads.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    return str(value)


class ThreadTable:
    """Deduplicating encoder for the :class:`ThreadId` s of one document."""

    def __init__(self) -> None:
        self.threads: List[ThreadId] = []
        self._index: Dict[ThreadId, int] = {}

    def index(self, tid: ThreadId) -> int:
        known = self._index.get(tid)
        if known is None:
            known = self._index[tid] = len(self.threads)
            self.threads.append(tid)
        return known

    def schedule(self, schedule: Iterable[ThreadId]) -> List[int]:
        return [self.index(tid) for tid in schedule]

    def to_json(self) -> List[Dict[str, Any]]:
        return [{"path": list(t.path), "label": t.label} for t in self.threads]


def bug_to_json(bug: BugReport, table: ThreadTable) -> Dict[str, Any]:
    return {
        "kind": bug.kind.value,
        "message": bug.message,
        "thread": table.index(bug.thread) if bug.thread is not None else None,
        "schedule": table.schedule(bug.schedule),
        "preemptions": bug.preemptions,
        "step_index": bug.step_index,
        "details": [[key, sanitize(value)] for key, value in bug.details],
    }


#: Count of the removed analysis-driven search reduction.  Contexts and
#: ICB extras keep writing it, as 0, so every existing cache entry and
#: checkpoint keeps its bytes; decoding requires it and refuses any
#: other value, which only the removed reduction could have written.
PRUNED_KEY = "analysis_pruned"


def extras_to_json(extras: Dict[str, Any]) -> List[List[Any]]:
    """A result's extras as sorted ``[name, value]`` pairs."""
    pairs = dict(extras, **{PRUNED_KEY: 0})
    return [[name, sanitize(value)] for name, value in sorted(pairs.items())]


def context_to_json(
    ctx: "SearchContext", table: ThreadTable, by_bound: bool = False
) -> Dict[str, Any]:
    """A context's statistics; ``by_bound`` stores distinct states as
    the per-bound histogram instead of ``[fingerprint, bound]`` pairs."""
    data: Dict[str, Any] = {
        "executions": ctx.executions,
        "transitions": ctx.transitions,
        PRUNED_KEY: 0,
        "max_steps": ctx.max_steps,
        "max_blocking": ctx.max_blocking,
        "max_preemptions": ctx.max_preemptions,
        "bugs": [bug_to_json(bug, table) for bug in ctx.bugs.values()],
        "history": [[e, s] for e, s in ctx.history],
    }
    if by_bound:
        data["states_by_bound"] = [[b, n] for b, n in ctx.states_by_bound().items()]
    else:
        data["states"] = [[fp, pre] for fp, pre in sorted(ctx.states.items())]
    return data


class Decoder:
    """Strict readers raising ``error``, the calling format's own type."""

    def __init__(self, error: Type[ReproError]) -> None:
        self.error = error

    # -- files ---------------------------------------------------------------

    def parse_json(self, text: str, what: str) -> Any:
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise self.error(f"{what} is not valid JSON: {exc}") from exc

    def read_json(self, path: pathlib.Path, what: str) -> Any:
        try:
            text = path.read_text()
        except OSError as exc:
            raise self.error(f"cannot read {what} {path}: {exc}") from exc
        return self.parse_json(text, what)

    # -- scalars -------------------------------------------------------------

    def require(self, data: Any, key: str, kind: type, where: str) -> Any:
        if not isinstance(data, dict) or key not in data:
            raise self.error(f"{where}: missing required key {key!r}")
        value = data[key]
        if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
            raise self.error(
                f"{where}: key {key!r} must be {kind.__name__}, got {type(value).__name__}"
            )
        return value

    def optional_int(self, data: Dict[str, Any], key: str) -> Optional[int]:
        value = data.get(key)
        if value is not None and type(value) is not int:
            raise self.error(f"{key} must be an integer or null")
        return value

    def int_pairs(
        self, data: Any, key: str, where: str, shape: str
    ) -> List[Tuple[int, int]]:
        pairs: List[Tuple[int, int]] = []
        for i, pair in enumerate(self.require(data, key, list, where)):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or type(pair[0]) is not int
                or type(pair[1]) is not int
            ):
                raise self.error(f"{where}.{key}[{i}] must be a {shape} int pair")
            pairs.append((pair[0], pair[1]))
        return pairs

    def key_values(self, data: Any, key: str, where: str) -> List[Tuple[str, Any]]:
        pairs: List[Tuple[str, Any]] = []
        for i, pair in enumerate(self.require(data, key, list, where)):
            if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], str):
                raise self.error(f"{where}.{key}[{i}] must be a [key, value] pair")
            pairs.append((pair[0], pair[1]))
        return pairs

    def unpruned(self, data: Any, where: str) -> None:
        """Check the constant :data:`PRUNED_KEY` count."""
        if self.require(data, PRUNED_KEY, int, where) != 0:
            raise self.error(
                f"{where}: key {PRUNED_KEY!r} must be 0: it was written by "
                "the removed analysis reduction"
            )

    def extras(self, data: Any, where: str) -> Dict[str, Any]:
        """Read :func:`extras_to_json`'s output under ``data["extras"]``."""
        extras = dict(self.key_values(data, "extras", where))
        self.unpruned(extras, f"{where}.extras")
        del extras[PRUNED_KEY]
        return extras

    def kind(self, data: Any, where: str) -> BugKind:
        try:
            return BugKind(self.require(data, "kind", str, where))
        except ValueError as exc:
            raise self.error(f"{where}: {exc}") from exc

    # -- threads and schedules -----------------------------------------------

    def threads(self, data: Any, where: str) -> List[ThreadId]:
        """The thread table under ``data["threads"]``."""
        threads: List[ThreadId] = []
        for i, entry in enumerate(self.require(data, "threads", list, where)):
            at = f"threads[{i}]"
            path = self.require(entry, "path", list, at)
            label = self.require(entry, "label", str, at)
            try:
                threads.append(ThreadId.from_path(path, label))
            except ValueError as exc:
                raise self.error(f"{at}: {exc}") from exc
        return threads

    def _out_of_range(self, index: Any, threads: List[ThreadId], where: str) -> ReproError:
        return self.error(
            f"{where}: thread index {index!r} out of range for {len(threads)} thread(s)"
        )

    def thread(self, index: Any, threads: List[ThreadId], where: str) -> ThreadId:
        if type(index) is not int or not 0 <= index < len(threads):
            raise self._out_of_range(index, threads, where)
        return threads[index]

    def schedule(
        self, data: Any, threads: List[ThreadId], where: str
    ) -> Tuple[ThreadId, ...]:
        if not isinstance(data, list):
            raise self.error(f"{where}: schedule must be a list")
        count = len(threads)
        for i, index in enumerate(data):
            if type(index) is not int or not 0 <= index < count:
                raise self._out_of_range(index, threads, f"{where}[{i}]")
        return tuple([threads[index] for index in data])

    # -- bugs and statistics -------------------------------------------------

    def bug(self, data: Any, threads: List[ThreadId], where: str) -> BugReport:
        kind = self.kind(data, where)
        thread = data.get("thread")
        details = self.key_values(data, "details", where)
        return BugReport(
            kind=kind,
            message=self.require(data, "message", str, where),
            thread=(
                self.thread(thread, threads, f"{where}.thread")
                if thread is not None
                else None
            ),
            schedule=self.schedule(data.get("schedule"), threads, f"{where}.schedule"),
            preemptions=self.require(data, "preemptions", int, where),
            step_index=self.require(data, "step_index", int, where),
            details=tuple(
                (key, tuple(value) if isinstance(value, list) else value)
                for key, value in details
            ),
        )

    def context(
        self,
        data: Any,
        threads: List[ThreadId],
        ctx: "SearchContext",
        by_bound: bool = False,
        where: str = "context",
    ) -> "SearchContext":
        """Fill ``ctx`` from :func:`context_to_json`'s output."""
        ctx.executions = self.require(data, "executions", int, where)
        ctx.transitions = self.require(data, "transitions", int, where)
        self.unpruned(data, where)
        ctx.max_steps = self.require(data, "max_steps", int, where)
        ctx.max_blocking = self.require(data, "max_blocking", int, where)
        ctx.max_preemptions = self.require(data, "max_preemptions", int, where)
        if by_bound:
            states: Dict[Any, int] = {}
            for bound, count in self.int_pairs(
                data, "states_by_bound", where, "[bound, count]"
            ):
                for i in range(count):
                    states[("cached", bound, i)] = bound
            ctx.states = states
        else:
            ctx.states = dict(
                self.int_pairs(data, "states", where, "[fingerprint, bound]")
            )
        for i, entry in enumerate(self.require(data, "bugs", list, where)):
            bug = self.bug(entry, threads, f"{where}.bugs[{i}]")
            ctx.bugs[bug.signature] = bug
        ctx.history = self.int_pairs(data, "history", where, "[executions, states]")
        return ctx
