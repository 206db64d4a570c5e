"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions and methods of the ``repro``
modules in place and records one span per call: name, start, end and the
span that was open when the call began (its parent).  Spans live in
compact in-memory arrays and are written out once, when the run ends.
Nothing inside ``src/`` is modified on disk; :meth:`Tracer.uninstall`
puts every original back.

A layer's *self* time is its spans' duration minus the part their child
spans cover, so ``ProgramStateSpace.execute`` -> ``Execution.execute``
-> ``Execution.fingerprint`` -> ``World.fingerprint`` bills each level
only for its own work.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chess.checker import ChessChecker
from repro.core.execution import Execution
from repro.core.transition import ProgramStateSpace
from repro.core.world import World
from repro.races.happens_before import HBTracker
from repro.search.statecache import WorkItemCache
from repro.search.strategy import SearchContext, Strategy
from repro.service.cache import ResultCache
from repro.service.checkpoint import Checkpointer
from repro.service.daemon import CheckingService
from repro.service.jobs import JobQueue
from repro.trace import minimize as trace_minimize
from repro.trace import replay as trace_replay
from repro.trace.format import TraceRecord
from repro.zing.checker import ZingStateSpace

_SPACE_CALLS = ("execute", "enabled", "fingerprint", "preemptions", "is_terminal", "bugs")

#: (owner, attribute) pairs recorded as spans.  Owners are classes, or
#: modules for plain functions.
SPANS: Tuple[Tuple[Any, str], ...] = (
    *((ProgramStateSpace, name) for name in _SPACE_CALLS),
    (Execution, "execute"),
    (Execution, "fingerprint"),
    (World, "fingerprint"),
    (HBTracker, "data_access"),
    (HBTracker, "sync_access"),
    (Strategy, "run"),
    (SearchContext, "record_initial"),
    (SearchContext, "visit"),
    (SearchContext, "note_terminal"),
    (WorkItemCache, "seen"),
    *((ZingStateSpace, name) for name in _SPACE_CALLS),
    (TraceRecord, "save"),
    (trace_replay, "replay_trace"),
    (trace_minimize, "minimize_trace"),
    (JobQueue, "submit"),
    (JobQueue, "claim"),
    (JobQueue, "complete"),
    (ResultCache, "lookup"),
    (ResultCache, "store"),
    (Checkpointer, "save_state"),
    (CheckingService, "write_result"),
)

#: Calls only counted, not timed: too frequent and too small to span.
COUNTS: Tuple[Tuple[Any, str], ...] = ((Execution, "enabled_threads"),)

#: Span names whose self time is search bookkeeping (ICB, SearchContext
#: and the work-item table), as opposed to state-space calls.
SEARCH_SPANS = (
    "Strategy.run",
    "SearchContext.record_initial",
    "SearchContext.visit",
    "SearchContext.note_terminal",
    "WorkItemCache.seen",
)


def _label(owner: Any, attr: str) -> str:
    return f"{getattr(owner, '__name__', owner).rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """In-memory span recorder over wrapped ``repro`` callables."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.calls: Dict[str, int] = defaultdict(int)
        #: Calls whose result counted as a hit (cache lookups).
        self.hits: Dict[str, int] = defaultdict(int)
        #: (program, schedule) of every terminal execution of a search.
        self.schedules: List[Tuple[Any, Tuple[Any, ...]]] = []
        #: Every ProgramStateSpace a checker built, for its counters.
        self.spaces: List[ProgramStateSpace] = []
        self._stack = [-1]
        self._originals: List[Tuple[Any, str, Any, List[Any]]] = []

    # -- recording ------------------------------------------------------------

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def _span_wrapper(
        self, fn: Callable[..., Any], label: str, hit: Optional[Callable[[Any], bool]]
    ) -> Callable[..., Any]:
        nid = self._id(label)
        stack, names, parents, starts, ends = (
            self._stack, self.name, self.parent, self.start, self.end
        )
        clock = time.perf_counter
        hits = self.hits

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hit is not None and hit(result):
                hits[label] += 1
            return result

        return traced

    def _count_wrapper(self, fn: Callable[..., Any], label: str) -> Callable[..., Any]:
        calls = self.calls

        def counted(*args: Any, **kwargs: Any) -> Any:
            calls[label] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing -------------------------------------------------------------

    def _replace(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        original = getattr(owner, attr)
        rebound: List[Any] = []
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            # A module-level function: rebind it in every repro module
            # that imported it by name, so internal callers are traced too.
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if (name == "repro" or name.startswith("repro.")) and (
                    getattr(module, attr, None) is original
                ):
                    setattr(module, attr, wrapper)
                    rebound.append(module)
        self._originals.append((owner, attr, original, rebound))

    def install(self) -> None:
        """Wrap every traced callable (see :data:`SPANS` and :data:`COUNTS`)."""
        hit_tests = {
            "WorkItemCache.seen": lambda result: result is True,
            "ResultCache.lookup": lambda result: result is not None,
        }
        for owner, attr in SPANS:
            label = _label(owner, attr)
            fn = getattr(owner, attr)
            self._replace(owner, attr, self._span_wrapper(fn, label, hit_tests.get(label)))
        for owner, attr in COUNTS:
            label = _label(owner, attr)
            self._replace(owner, attr, self._count_wrapper(getattr(owner, attr), label))
        self._capture_search_inputs()

    def _capture_search_inputs(self) -> None:
        schedules, spaces = self.schedules, self.spaces
        note_terminal = SearchContext.note_terminal
        space = ChessChecker.space

        def capture_terminal(ctx: Any, state_space: Any, state: Any) -> Any:
            if isinstance(state_space, ProgramStateSpace):
                schedules.append((state_space.program, state_space.schedule_of(state)))
            return note_terminal(ctx, state_space, state)

        def capture_space(checker: Any, *args: Any, **kwargs: Any) -> Any:
            built = space(checker, *args, **kwargs)
            spaces.append(built)
            return built

        self._replace(SearchContext, "note_terminal", capture_terminal)
        self._replace(ChessChecker, "space", capture_space)

    def uninstall(self) -> None:
        """Restore every original callable, newest wrapper first."""
        while self._originals:
            owner, attr, original, rebound = self._originals.pop()
            if isinstance(owner, type):
                setattr(owner, attr, original)
            for module in rebound:
                setattr(module, attr, original)

    # -- results ----------------------------------------------------------------

    def totals(self) -> "SpanTotals":
        return SpanTotals(self)

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [
                ["name", self.name.typecode],
                ["parent", self.parent.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
            ],
            "calls": dict(self.calls),
        }
        with path.open("wb") as out:
            out.write((json.dumps(header) + "\n").encode("utf-8"))
            for values in (self.name, self.parent, self.start, self.end):
                values.tofile(out)


class SpanTotals:
    """Per-name call counts, inclusive time and self time of a trace."""

    def __init__(self, tracer: Tracer) -> None:
        names, parents = tracer.name, tracer.parent
        durations = [end - start for start, end in zip(tracer.start, tracer.end)]
        covered = [0.0] * len(durations)
        for index, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += durations[index]
        labels = tracer.names
        self.count: Dict[str, int] = defaultdict(int, tracer.calls)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        for index, nid in enumerate(names):
            label = labels[nid]
            self.count[label] += 1
            self.total[label] += durations[index]
            self.self_time[label] += durations[index] - covered[index]
        self.hits = tracer.hits
        self.search_self_s = sum(self.self_time[name] for name in SEARCH_SPANS)
        self._split(tracer, durations)

    def _split(self, tracer: Tracer, durations: List[float]) -> None:
        """Engine replay time and top-level trace replays, by parentage.

        A search replay is an ``Execution.execute`` issued by a
        state-space call other than the final step of
        ``ProgramStateSpace.execute``; a top-level trace replay is a
        ``replay_trace`` not issued by ``minimize_trace``.
        """
        ids = {label: nid for nid, label in enumerate(tracer.names)}
        execute = ids["Execution.execute"]
        space_execute = ids["ProgramStateSpace.execute"]
        space_calls = {ids[f"ProgramStateSpace.{name}"] for name in _SPACE_CALLS}
        replay = ids["replay.replay_trace"]
        minimize = ids["minimize.minimize_trace"]
        names, parents = tracer.name, tracer.parent
        final_step: Dict[int, int] = {}
        for index, nid in enumerate(names):
            if nid == execute:
                parent = parents[index]
                if parent >= 0 and names[parent] == space_execute:
                    final_step[parent] = index
        self.replay_s = 0.0
        self.trace_replay_s = 0.0
        for index, nid in enumerate(names):
            parent = parents[index]
            if nid == execute:
                if (
                    parent >= 0
                    and names[parent] in space_calls
                    and final_step.get(parent) != index
                ):
                    self.replay_s += durations[index]
            elif nid == replay and (parent < 0 or names[parent] != minimize):
                self.trace_replay_s += durations[index]
