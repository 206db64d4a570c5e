"""The typed event stream of a search run.

Events are frozen dataclasses carrying only JSON primitives, so every
event serializes losslessly to one JSONL line and back
(:func:`event_from_dict` is the exact inverse of
:meth:`Event.to_dict`).  The :class:`EventBus` dispatches events to
subscribed sinks; with no sinks it is inert, and instrumented code is
expected to test :attr:`EventBus.active` before even *constructing* an
event, so the disabled path allocates nothing.

Volume discipline: per-transition quantities are counted, not
streamed (by ``SearchContext``, and reported through
:mod:`repro.obs.metrics`); the bus carries discrete milestones only --
new states, completed executions, bounds, bugs, race hits, worker
heartbeats -- keeping event logs proportional to discoveries rather
than to raw transitions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Tuple, Type

from ..errors import ReproError


class ObsFormatError(ReproError):
    """A serialized event or metrics artifact violates its schema."""


@dataclass(frozen=True)
class Event:
    """Base of all instrumentation events.

    ``t`` is seconds since the run's instrumentation was armed
    (monotonic, not wall-clock), so event logs from different machines
    and processes line up on a common axis starting at zero.
    """

    kind: ClassVar[str] = "event"

    t: float

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"e": self.kind, "t": round(self.t, 6)}
        for field in dataclasses.fields(self):
            if field.name != "t":
                data[field.name] = getattr(self, field.name)
        return data


@dataclass(frozen=True)
class SearchStarted(Event):
    """A strategy (or the parallel coordinator) began exploring."""

    kind: ClassVar[str] = "search_started"

    strategy: str
    program: str


@dataclass(frozen=True)
class SearchFinished(Event):
    """The run ended; final totals, mirroring ``SearchResult``."""

    kind: ClassVar[str] = "search_finished"

    strategy: str
    completed: bool
    stop_reason: str
    executions: int
    transitions: int
    states: int
    bugs: int


@dataclass(frozen=True)
class BoundStarted(Event):
    """An iteration bound began (ICB preemption bound, IDDFS depth)."""

    kind: ClassVar[str] = "bound_started"

    bound: int
    frontier: int


@dataclass(frozen=True)
class BoundCompleted(Event):
    """Every execution within ``bound`` has been explored."""

    kind: ClassVar[str] = "bound_completed"

    bound: int
    executions: int
    states: int


@dataclass(frozen=True)
class ExecutionStarted(Event):
    """The first transition of execution number ``index`` ran."""

    kind: ClassVar[str] = "execution_started"

    index: int


@dataclass(frozen=True)
class ExecutionFinished(Event):
    """One terminal state reached; ``states`` is the running distinct
    count -- the series Figure 2 plots."""

    kind: ClassVar[str] = "execution_finished"

    index: int
    states: int


@dataclass(frozen=True)
class StateVisited(Event):
    """A *new* distinct state was discovered (revisits are metrics)."""

    kind: ClassVar[str] = "state_visited"

    states: int
    preemptions: int


@dataclass(frozen=True)
class BugFound(Event):
    """A bug report was recorded (``new`` distinguishes a first
    sighting from a better witness of a known defect)."""

    kind: ClassVar[str] = "bug_found"

    bug_kind: str
    message: str
    preemptions: int
    new: bool


@dataclass(frozen=True)
class RaceChecked(Event):
    """A data-race check flagged ``races`` conflicting accesses."""

    kind: ClassVar[str] = "race_checked"

    races: int


@dataclass(frozen=True)
class WorkerHeartbeat(Event):
    """Progress streamed by one parallel worker (cumulative totals)."""

    kind: ClassVar[str] = "worker_heartbeat"

    worker: int
    executions: int
    transitions: int


@dataclass(frozen=True)
class CheckpointSaved(Event):
    """The live search state was persisted (see ``docs/service.md``).

    ``frontier``/``deferred`` count the work items captured in the
    current and next-bound queues; ``sequence`` increments per save,
    so gaps in an event log reveal lost checkpoints."""

    kind: ClassVar[str] = "checkpoint_saved"

    sequence: int
    bound: int
    frontier: int
    deferred: int
    executions: int


@dataclass(frozen=True)
class CheckpointResumed(Event):
    """A search continued from a persisted checkpoint instead of
    starting fresh; totals are the restored starting point."""

    kind: ClassVar[str] = "checkpoint_resumed"

    sequence: int
    bound: int
    executions: int
    transitions: int


@dataclass(frozen=True)
class ResultCacheServed(Event):
    """A completed result was served from the content-addressed result
    cache without any exploration (``docs/service.md``)."""

    kind: ClassVar[str] = "result_cache_served"

    key: str
    program: str


@dataclass(frozen=True)
class HttpRequestServed(Event):
    """The daemon's HTTP front-end answered one request
    (``repro.net.http_api``)."""

    kind: ClassVar[str] = "http_request_served"

    method: str
    path: str
    status: int


@dataclass(frozen=True)
class LeaseRenewed(Event):
    """A fleet daemon pushed its lease deadline forward while a job
    ran (``repro.net.lease``)."""

    kind: ClassVar[str] = "lease_renewed"

    job: str
    fence: int


@dataclass(frozen=True)
class LeaseTakeover(Event):
    """A fleet daemon observed a peer's lease expire and requeued the
    job; the next claim carries a higher fencing token."""

    kind: ClassVar[str] = "lease_takeover"

    job: str
    fence: int
    prior_owner: str


@dataclass(frozen=True)
class CacheSyncApplied(Event):
    """A cache entry or witness trace was pulled from a peer daemon
    (``repro.net.sync``); ``kind_of`` is ``result`` or ``trace``."""

    kind: ClassVar[str] = "cache_sync_applied"

    key: str
    source: str
    kind_of: str


@dataclass(frozen=True)
class InvivoRun(Event):
    """A checking run over an in-vivo program finished
    (``repro.invivo``); cumulative OS-thread/handshake totals."""

    kind: ClassVar[str] = "invivo_run"

    program: str
    threads: int
    handshakes: int
    abandoned: int


#: Registry of every event type, keyed by its wire tag.  Serialization
#: and validation are driven from this table, so adding an event type
#: here is the single step that extends the schema.
EVENT_TYPES: Dict[str, Type[Event]] = {
    cls.kind: cls
    for cls in (
        SearchStarted,
        SearchFinished,
        BoundStarted,
        BoundCompleted,
        ExecutionStarted,
        ExecutionFinished,
        StateVisited,
        BugFound,
        RaceChecked,
        WorkerHeartbeat,
        CheckpointSaved,
        CheckpointResumed,
        ResultCacheServed,
        HttpRequestServed,
        LeaseRenewed,
        LeaseTakeover,
        CacheSyncApplied,
        InvivoRun,
    )
}

#: JSON-primitive validators per annotation; bool is checked before
#: int because bool is an int subclass.
_FIELD_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
}


def event_fields(cls: Type[Event]) -> List[Tuple[str, str]]:
    """The ``(name, annotation)`` schema of one event type."""
    return [(f.name, f.type) for f in dataclasses.fields(cls)]


def event_from_dict(data: Dict[str, Any], where: str = "event") -> Event:
    """Rebuild a typed event from its wire dict, validating strictly.

    The inverse of :meth:`Event.to_dict`: unknown kinds, missing or
    extra keys, and wrong primitive types all raise
    :class:`ObsFormatError` naming the offending key.
    """
    if not isinstance(data, dict):
        raise ObsFormatError(f"{where}: event must be an object")
    kind = data.get("e")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ObsFormatError(f"{where}: unknown event kind {kind!r}")
    fields = event_fields(cls)
    expected = {name for name, _ in fields}
    extra = set(data) - expected - {"e"}
    if extra:
        raise ObsFormatError(f"{where}: unexpected key(s) {sorted(extra)!r}")
    kwargs: Dict[str, Any] = {}
    for name, annotation in fields:
        if name not in data:
            raise ObsFormatError(f"{where}: missing key {name!r}")
        value = data[name]
        checker = _FIELD_CHECKS.get(annotation)
        if checker is not None and not checker(value):
            raise ObsFormatError(
                f"{where}: key {name!r} must be {annotation}, "
                f"got {type(value).__name__}"
            )
        kwargs[name] = float(value) if annotation == "float" else value
    return cls(**kwargs)


class Sink:
    """A consumer of the event stream.

    Sinks receive every emitted event through :meth:`handle` and are
    :meth:`close`-d when the run's artifacts should be finalized.
    Subclasses must not raise from ``handle``; a failing sink would
    abort the search it is observing.
    """

    def handle(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class EventBus:
    """Dispatches events to subscribed sinks; inert with none.

    Emitting sites must guard on :attr:`active` so the disabled path
    (no sinks) costs one attribute read and never allocates an event.
    """

    __slots__ = ("_sinks",)

    def __init__(self) -> None:
        self._sinks: List[Sink] = []

    @property
    def active(self) -> bool:
        return bool(self._sinks)

    def subscribe(self, sink: Sink) -> Sink:
        self._sinks.append(sink)
        return sink

    def unsubscribe(self, sink: Sink) -> None:
        self._sinks.remove(sink)

    def emit(self, event: Event) -> None:
        for sink in self._sinks:
            sink.handle(event)

    def close(self) -> None:
        """Close every sink (flushing files, final progress lines)."""
        for sink in self._sinks:
            sink.close()
