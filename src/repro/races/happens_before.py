"""The happens-before tracker.

Implements the relation of Appendix A.1: two steps are *dependent* if
they are executed by the same thread or access the same synchronization
variable; the happens-before relation HB(alpha) is the transitive
closure of the program-order and same-sync-var dependences.

The tracker maintains:

* a vector clock per thread (program order plus inherited orderings);
* a vector clock per synchronization object -- every access to a sync
  object joins the object's clock into the thread and publishes the
  thread's clock back, totally ordering all accesses to that object
  (exactly the paper's dependence relation, which does not distinguish
  acquire from release);
* per data variable, the epochs of the last write and of reads since
  that write, checked FastTrack-style at every data access.

By default a race is two *conflicting* (at least one write) unordered
accesses, which is what the CHESS implementation checks.  The paper's
appendix uses a stricter formal definition where even two unordered
reads of the same data variable constitute a race (it simplifies the
proofs of Theorems 2 and 3); set ``strict=True`` to get that
definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.objects import ABSENT, SharedObject
from ..core.thread import ThreadId
from .vectorclock import VectorClock

#: An access epoch: (thread, that thread's clock at the access).
Epoch = Tuple[ThreadId, int]


@dataclass(frozen=True)
class RaceInfo:
    """Two unordered accesses to the same data variable."""

    variable: str
    first: Epoch
    first_was_write: bool
    second: Epoch
    second_was_write: bool

    def describe(self) -> str:
        def render(epoch: Epoch, write: bool) -> str:
            kind = "write" if write else "read"
            return f"{kind} by {epoch[0]}"

        return (
            f"data race on {self.variable}: "
            f"{render(self.first, self.first_was_write)} is unordered with "
            f"{render(self.second, self.second_was_write)}"
        )


class _VarState:
    """Race-check state for one data variable.

    Replaced, never mutated, except that a read adds to :attr:`reads`:
    the tracker's undo journal then needs only dictionary entries.
    """

    __slots__ = ("last_write", "last_write_clock", "reads", "last_access", "last_access_write")

    def __init__(self) -> None:
        self.last_write: Optional[Epoch] = None
        self.last_write_clock: Optional[VectorClock] = None
        self.reads: Dict[ThreadId, int] = {}
        # Only used in strict mode.
        self.last_access: Optional[Epoch] = None
        self.last_access_write = False


class HBTracker:
    """Tracks happens-before clocks and detects data races online.

    Objects are keyed by name, which is unique within an execution and
    the same in every execution of the program, so the tracker of one
    execution can serve another that reached the same state.  Every
    change is journaled; :meth:`rollback` undoes changes back to a
    :meth:`mark`.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self._thread_clocks: Dict[ThreadId, VectorClock] = {}
        self._sync_clocks: Dict[str, VectorClock] = {}
        self._var_state: Dict[str, _VarState] = {}
        #: ``(dict, key, previous value or ABSENT)`` per change.
        self._journal: List[Tuple[Dict[Any, Any], Any, Any]] = []

    # -- undo journal ---------------------------------------------------------

    def mark(self) -> int:
        """A position in the journal to :meth:`rollback` to."""
        return len(self._journal)

    def rollback(self, mark: int) -> None:
        """Undo every change made since ``mark``."""
        journal = self._journal
        for table, key, previous in reversed(journal[mark:]):
            if previous is ABSENT:
                del table[key]
            else:
                table[key] = previous
        del journal[mark:]

    # -- clocks -----------------------------------------------------------

    def clock_of(self, tid: ThreadId) -> VectorClock:
        """The thread's current vector clock."""
        return self._thread_clocks.get(tid, VectorClock.empty())

    def _tick(self, tid: ThreadId) -> VectorClock:
        """Advance ``tid``'s own component; return its new clock."""
        thread_clocks = self._thread_clocks
        own = thread_clocks.get(tid)
        self._journal.append((thread_clocks, tid, ABSENT if own is None else own))
        clocks = own._clocks.copy() if own is not None else {}
        clocks[tid] = clocks.get(tid, 0) + 1
        clock = thread_clocks[tid] = VectorClock._adopt(clocks)
        return clock

    # -- step processing ----------------------------------------------------

    def sync_access(self, tid: ThreadId, objects: List[SharedObject]) -> VectorClock:
        """Record a synchronization access touching ``objects``.

        The thread's clock absorbs every object's clock, ticks, and is
        published back to every object.  Returns the step's clock.
        """
        thread_clocks = self._thread_clocks
        own = thread_clocks.get(tid)
        clocks = own._clocks.copy() if own is not None else {}
        sync_clocks = self._sync_clocks
        journal = self._journal
        journal.append((thread_clocks, tid, ABSENT if own is None else own))
        for obj in objects:
            other = sync_clocks.get(obj.name)
            journal.append((sync_clocks, obj.name, ABSENT if other is None else other))
            # An object whose last access was this thread's holds a
            # clock this thread's own clock already covers.
            if other is not None and other is not own:
                for peer, time in other._clocks.items():
                    if clocks.get(peer, 0) < time:
                        clocks[peer] = time
        clocks[tid] = clocks.get(tid, 0) + 1
        clock = VectorClock._adopt(clocks)
        for obj in objects:
            sync_clocks[obj.name] = clock
        thread_clocks[tid] = clock
        return clock

    def local_step(self, tid: ThreadId) -> VectorClock:
        """Record a step that accesses no shared variable (YIELD)."""
        return self._tick(tid)

    def data_access(
        self, tid: ThreadId, variable: SharedObject, is_write: bool
    ) -> Tuple[VectorClock, List[RaceInfo]]:
        """Record a data access; return the step clock and any races."""
        clock = self._tick(tid)
        epoch: Epoch = (tid, clock._clocks[tid])
        name = variable.name
        var_state = self._var_state
        state = var_state.get(name)
        races: List[RaceInfo] = []

        if self.strict:
            # Appendix A definition: *any* two unordered accesses race.
            if state is not None:
                prev = state.last_access
                if prev is not None and not clock.covers(prev[0], prev[1]):
                    races.append(
                        RaceInfo(name, prev, state.last_access_write, epoch, is_write)
                    )
            fresh = _VarState()
            fresh.last_access = epoch
            fresh.last_access_write = is_write
            self._journal.append((var_state, name, ABSENT if state is None else state))
            var_state[name] = fresh
            return clock, races

        prev = state.last_write if state is not None else None
        if is_write:
            if prev is not None and not clock.covers(prev[0], prev[1]):
                races.append(RaceInfo(name, prev, True, epoch, True))
            if state is not None:
                for reader, time in state.reads.items():
                    if reader != tid and not clock.covers(reader, time):
                        races.append(
                            RaceInfo(name, (reader, time), False, epoch, True)
                        )
            fresh = _VarState()
            fresh.last_write = epoch
            fresh.last_write_clock = clock
            self._journal.append((var_state, name, ABSENT if state is None else state))
            var_state[name] = fresh
        else:
            if prev is not None and not clock.covers(prev[0], prev[1]):
                races.append(RaceInfo(name, prev, True, epoch, False))
            if state is None:
                state = var_state[name] = _VarState()
                self._journal.append((var_state, name, ABSENT))
            reads = state.reads
            self._journal.append((reads, tid, reads.get(tid, ABSENT)))
            reads[tid] = epoch[1]
        return clock, races


def race_variable_from_message(message: str) -> Optional[str]:
    """The variable a :meth:`RaceInfo.describe` message is about.

    The inverse of the ``"data race on <variable>: ..."`` format used
    in race bug reports; returns ``None`` for any other message.  The
    static/dynamic cross-validation in ``tests/analysis`` uses this to
    map reported races back onto variables without re-running the
    detector.
    """
    prefix = "data race on "
    if not message.startswith(prefix):
        return None
    variable, sep, _ = message[len(prefix) :].partition(": ")
    return variable if sep else None
