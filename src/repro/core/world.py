"""The world: registry of all shared state in one execution.

A fresh :class:`World` is built for every execution by the program's
setup function, so replays always start from identical initial state --
the engine's determinism rests on this.  A rewound execution keeps its
world and drops the objects created after the step it rewinds to.  The
world provides factory methods for every kind of shared object and
maintains the shared-state part of the execution's state fingerprint
incrementally.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import ProgramDefinitionError
from .heap import HeapRef
from .objects import DIGEST_MASK, SharedObject
from .sync import (
    Barrier,
    CondVar,
    CriticalSection,
    Event,
    Mutex,
    RWLock,
    Semaphore,
)
from .variables import AtomicVar, SharedVar, make_array


class World:
    """Registry and factory for the shared state of one execution.

    Shared objects register themselves on construction; names must be
    unique because the state fingerprint keys object snapshots by name
    (names, unlike registration order, are canonical across equivalent
    executions even when threads allocate dynamically).
    """

    def __init__(self) -> None:
        self._objects: List[SharedObject] = []
        self._by_name: Dict[str, SharedObject] = {}
        #: Sum of the cached object digests; objects whose digest is stale.
        self._sum = 0
        self._dirty: List[SharedObject] = []

    # -- registration ---------------------------------------------------

    def _register(self, obj: SharedObject) -> None:
        if obj.name in self._by_name:
            raise ProgramDefinitionError(
                f"duplicate shared object name {obj.name!r}; shared object "
                "names must be unique within a program"
            )
        self._by_name[obj.name] = obj
        self._objects.append(obj)
        obj._dirty = True  # new, so not yet in the dirty list
        self._dirty.append(obj)

    def mark_dirty(self, *objects: SharedObject) -> None:
        """Note that each object's state may have changed (see :meth:`fingerprint`)."""
        for obj in objects:
            if not obj._dirty:
                obj._dirty = True
                self._dirty.append(obj)

    @property
    def objects(self) -> List[SharedObject]:
        """All registered shared objects, in registration order."""
        return self._objects

    def find(self, name: str) -> SharedObject:
        """Look up a shared object by its unique name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ProgramDefinitionError(f"no shared object named {name!r}") from None

    # -- factories ------------------------------------------------------

    def var(self, name: str, initial: Any = None) -> SharedVar:
        """A plain shared data variable."""
        return SharedVar(self, name, initial)

    def atomic(self, name: str, initial: Any = 0) -> AtomicVar:
        """An atomic (synchronization) variable with interlocked ops."""
        return AtomicVar(self, name, initial)

    def array(self, name: str, values: list, atomic: bool = False):
        """A shared array: one variable per element."""
        return make_array(self, name, values, atomic=atomic)

    def mutex(self, name: str, guard: Optional[HeapRef] = None) -> Mutex:
        """A non-re-entrant lock."""
        return Mutex(self, name, guard=guard)

    def critical_section(
        self, name: str, guard: Optional[HeapRef] = None
    ) -> CriticalSection:
        """A re-entrant Win32-style critical section."""
        return CriticalSection(self, name, guard=guard)

    def event(
        self,
        name: str,
        initial: bool = False,
        auto_reset: bool = False,
        guard: Optional[HeapRef] = None,
    ) -> Event:
        """A Win32-style event."""
        return Event(self, name, initial=initial, auto_reset=auto_reset, guard=guard)

    def semaphore(
        self, name: str, initial: int = 0, maximum: Optional[int] = None
    ) -> Semaphore:
        """A counting semaphore."""
        return Semaphore(self, name, initial=initial, maximum=maximum)

    def condvar(self, name: str) -> CondVar:
        """A Mesa-style condition variable."""
        return CondVar(self, name)

    def rwlock(self, name: str) -> RWLock:
        """A reader-writer lock."""
        return RWLock(self, name)

    def barrier(self, name: str, parties: int) -> Barrier:
        """A one-shot N-party barrier (composite)."""
        return Barrier(self, name, parties)

    def alloc(self, name: str, **fields: Any) -> HeapRef:
        """A heap object allocated before the program starts."""
        return HeapRef(self, name, dict(fields))

    # -- fingerprinting ---------------------------------------------------

    def fingerprint(self) -> int:
        """Order-independent digest of all shared-object states.

        The sum modulo 2**64 of every object's digest, kept as a running
        total that re-digests only objects marked dirty since the last
        call: new objects, and every object an engine step touches.
        """
        for obj in self._dirty:
            fresh = obj.digest()
            self._sum = (self._sum + fresh - obj._digest) & DIGEST_MASK
            obj._digest, obj._dirty = fresh, False
        self._dirty.clear()
        return self._sum

    def truncate(self, count: int) -> List[SharedObject]:
        """Unregister and return every object but the first ``count``."""
        dropped = self._objects[count:]
        if not dropped:
            return dropped
        del self._objects[count:]
        total = self._sum
        for obj in dropped:
            del self._by_name[obj.name]
            total -= obj._digest
        self._sum = total & DIGEST_MASK
        self._dirty = [obj for obj in self._dirty if obj not in dropped]
        return dropped
