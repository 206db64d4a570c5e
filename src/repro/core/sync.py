"""Synchronization primitives (the paper's ``SyncVar`` objects).

These model the Win32 primitives the paper's benchmarks use: mutexes,
re-entrant critical sections, auto/manual-reset events, semaphores,
condition variables and reader-writer locks.  Every access to one of
these objects is a synchronization access: a scheduling point under the
``sync_only`` policy and a dependence edge in the happens-before
relation.

Blocking semantics are expressed through :meth:`is_enabled`: a thread
whose pending effect is disabled simply does not appear in the
scheduler's enabled set, exactly as in the paper's formal model.  A
switch away from a thread blocked here is a *nonpreempting* context
switch and is never counted against the preemption bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable, List, Optional, Tuple

from ..errors import BugKind
from .effects import Effect, EffectKind
from .objects import BugSignal, SharedObject
from .variables import AtomicVar

if TYPE_CHECKING:  # pragma: no cover
    from .heap import HeapRef
    from .thread import ThreadId, ThreadState
    from .world import World


class Mutex(SharedObject):
    """A non-re-entrant mutual-exclusion lock.

    Acquiring a mutex the thread already holds blocks forever (a
    self-deadlock, which the deadlock monitor reports).  Releasing a
    mutex the thread does not hold is a lock-usage bug.

    The optional ``guard`` ties the mutex's storage to a heap object:
    if that object is freed, any later operation on the mutex is
    reported as a use-after-free.  This models synchronization objects
    embedded in heap-allocated structures, such as the critical section
    inside Dryad's channel object (Figure 3 of the paper).
    """

    def __init__(
        self, world: "World", name: str, guard: Optional["HeapRef"] = None
    ) -> None:
        super().__init__(world, name)
        self.holder: Optional[Any] = None
        self.guard = guard

    # -- effect constructors -------------------------------------------

    def acquire(self) -> Effect:
        """Block until the mutex is free, then take it."""
        return Effect(EffectKind.ACQUIRE, self)

    def try_acquire(self) -> Effect:
        """Take the mutex if free; the yield result is ``True`` on
        success.  Never blocks."""
        return Effect(EffectKind.TRY_ACQUIRE, self)

    def release(self) -> Effect:
        """Release the mutex; a bug if the caller does not hold it."""
        return Effect(EffectKind.RELEASE, self)

    def poll(self) -> Effect:
        """Observe whether the mutex is held; the yield result is a
        bool.  A synchronization access (never blocks)."""
        return Effect(EffectKind.ATOMIC_READ, self)

    # -- semantics ----------------------------------------------------

    def is_enabled(self, effect: Effect, thread: "ThreadState") -> bool:
        if effect.kind is EffectKind.ACQUIRE:
            return self.holder is None
        return True

    def apply(self, effect: Effect, thread: "ThreadState") -> Any:
        kind = effect.kind
        if kind is EffectKind.ACQUIRE:
            self.holder = thread.tid
            return None
        if kind is EffectKind.ATOMIC_READ:
            return self.holder is not None
        if kind is EffectKind.TRY_ACQUIRE:
            if self.holder is None:
                self.holder = thread.tid
                return True
            return False
        if kind is EffectKind.RELEASE:
            if self.holder != thread.tid:
                raise BugSignal(
                    BugKind.LOCK_ERROR,
                    f"thread {thread.tid} released {self.name} "
                    f"held by {self.holder}",
                )
            self.holder = None
            return None
        return super().apply(effect, thread)

    def snapshot(self) -> Hashable:
        return ("mutex", self.holder)

    def restore(self, state: Any) -> None:
        self.holder = state[1]


class CriticalSection(SharedObject):
    """A re-entrant lock modelling Win32 ``CRITICAL_SECTION``.

    ``enter``/``leave`` mirror ``EnterCriticalSection`` and
    ``LeaveCriticalSection``; recursive entry by the owner succeeds and
    is counted, as in Win32.
    """

    def __init__(
        self, world: "World", name: str, guard: Optional["HeapRef"] = None
    ) -> None:
        super().__init__(world, name)
        self.holder: Optional[Any] = None
        self.count = 0
        self.guard = guard

    def enter(self) -> Effect:
        """EnterCriticalSection: block until available (re-entrant)."""
        return Effect(EffectKind.ACQUIRE, self)

    def try_enter(self) -> Effect:
        """TryEnterCriticalSection: never blocks, result is success."""
        return Effect(EffectKind.TRY_ACQUIRE, self)

    def leave(self) -> Effect:
        """LeaveCriticalSection: a bug if the caller is not the owner."""
        return Effect(EffectKind.RELEASE, self)

    def is_enabled(self, effect: Effect, thread: "ThreadState") -> bool:
        if effect.kind is EffectKind.ACQUIRE:
            return self.holder is None or self.holder == thread.tid
        return True

    def apply(self, effect: Effect, thread: "ThreadState") -> Any:
        kind = effect.kind
        if kind is EffectKind.ACQUIRE:
            self.holder = thread.tid
            self.count += 1
            return None
        if kind is EffectKind.TRY_ACQUIRE:
            if self.holder is None or self.holder == thread.tid:
                self.holder = thread.tid
                self.count += 1
                return True
            return False
        if kind is EffectKind.RELEASE:
            if self.holder != thread.tid:
                raise BugSignal(
                    BugKind.LOCK_ERROR,
                    f"thread {thread.tid} left {self.name} "
                    f"owned by {self.holder}",
                )
            self.count -= 1
            if self.count == 0:
                self.holder = None
            return None
        return super().apply(effect, thread)

    def snapshot(self) -> Hashable:
        return ("critsec", self.holder, self.count)

    def restore(self, state: Any) -> None:
        _, self.holder, self.count = state


class Event(SharedObject):
    """A Win32-style event.

    A *manual-reset* event stays signalled until explicitly reset; an
    *auto-reset* event releases exactly one waiter and clears itself
    when that waiter's wait step executes.
    """

    def __init__(
        self,
        world: "World",
        name: str,
        initial: bool = False,
        auto_reset: bool = False,
        guard: Optional["HeapRef"] = None,
    ) -> None:
        super().__init__(world, name)
        self.is_set = initial
        self.auto_reset = auto_reset
        self.guard = guard

    def wait(self) -> Effect:
        """Block until the event is signalled."""
        return Effect(EffectKind.WAIT, self)

    def set(self) -> Effect:
        """Signal the event (``SetEvent``)."""
        return Effect(EffectKind.SIGNAL, self)

    def reset(self) -> Effect:
        """Clear the event (``ResetEvent``)."""
        return Effect(EffectKind.RESET, self)

    def poll(self) -> Effect:
        """Observe the signalled state without waiting; the yield
        result is a bool.  A synchronization access (never blocks)."""
        return Effect(EffectKind.ATOMIC_READ, self)

    def is_enabled(self, effect: Effect, thread: "ThreadState") -> bool:
        if effect.kind is EffectKind.WAIT:
            return self.is_set
        return True

    def apply(self, effect: Effect, thread: "ThreadState") -> Any:
        kind = effect.kind
        if kind is EffectKind.ATOMIC_READ:
            return self.is_set
        if kind is EffectKind.WAIT:
            if self.auto_reset:
                self.is_set = False
            return None
        if kind is EffectKind.SIGNAL:
            self.is_set = True
            return None
        if kind is EffectKind.RESET:
            self.is_set = False
            return None
        return super().apply(effect, thread)

    def snapshot(self) -> Hashable:
        return ("event", self.is_set)

    def restore(self, state: Any) -> None:
        self.is_set = state[1]


class Semaphore(SharedObject):
    """A counting semaphore.

    ``acquire`` (P) blocks while the count is zero; ``release`` (V)
    increments it.  If ``maximum`` is given, releasing past it is a
    usage bug, matching Win32 ``ReleaseSemaphore`` failure.
    """

    def __init__(
        self,
        world: "World",
        name: str,
        initial: int = 0,
        maximum: Optional[int] = None,
    ) -> None:
        super().__init__(world, name)
        self.count = initial
        self.maximum = maximum

    def acquire(self) -> Effect:
        """P operation: block until the count is positive."""
        return Effect(EffectKind.SEM_ACQUIRE, self)

    def try_acquire(self) -> Effect:
        """Non-blocking P: decrement if positive; the yield result is
        ``True`` on success."""
        return Effect(EffectKind.TRY_ACQUIRE, self)

    def release(self, n: int = 1) -> Effect:
        """V operation: increment the count by ``n``."""
        return Effect(EffectKind.SEM_RELEASE, self, (n,))

    def is_enabled(self, effect: Effect, thread: "ThreadState") -> bool:
        if effect.kind is EffectKind.SEM_ACQUIRE:
            return self.count > 0
        return True

    def apply(self, effect: Effect, thread: "ThreadState") -> Any:
        kind = effect.kind
        if kind is EffectKind.SEM_ACQUIRE:
            self.count -= 1
            return None
        if kind is EffectKind.TRY_ACQUIRE:
            if self.count > 0:
                self.count -= 1
                return True
            return False
        if kind is EffectKind.SEM_RELEASE:
            (n,) = effect.args
            if self.maximum is not None and self.count + n > self.maximum:
                raise BugSignal(
                    BugKind.LOCK_ERROR,
                    f"semaphore {self.name} released past its maximum "
                    f"({self.count} + {n} > {self.maximum})",
                )
            self.count += n
            return None
        return super().apply(effect, thread)

    def snapshot(self) -> Hashable:
        return ("sem", self.count)

    def restore(self, state: Any) -> None:
        self.count = state[1]


class CondVar(SharedObject):
    """A Mesa-style condition variable.

    ``wait(mutex)`` atomically releases the mutex and parks the thread;
    ``notify``/``broadcast`` move parked threads to re-acquisition,
    where they compete normally for the mutex.  The engine coordinates
    the two-phase wait (see :mod:`repro.core.execution`); this object
    only stores the waiter queue.
    """

    def __init__(self, world: "World", name: str) -> None:
        super().__init__(world, name)
        #: FIFO of (thread id, mutex to re-acquire).  Ids, not thread
        #: states: a waiter entry must not make the world reach the
        #: thread's body (an in-vivo bridge parked here would otherwise
        #: keep its own OS thread reachable and never unwind).
        self.waiters: List[Tuple["ThreadId", Mutex]] = []

    def wait(self, mutex: Mutex) -> Effect:
        """Release ``mutex``, park until notified, then re-acquire it.

        The issuing thread must hold ``mutex``.  As with any Mesa
        condition variable, re-check the predicate in a loop.
        """
        return Effect(EffectKind.CV_WAIT, self, (mutex,))

    def notify(self) -> Effect:
        """Wake the longest-waiting thread, if any."""
        return Effect(EffectKind.CV_NOTIFY, self)

    def broadcast(self) -> Effect:
        """Wake every waiting thread."""
        return Effect(EffectKind.CV_BROADCAST, self)

    def is_enabled(self, effect: Effect, thread: "ThreadState") -> bool:
        # The sentinel WAIT a parked thread holds is enabled only once
        # a notify has removed the thread from the waiter queue (the
        # engine rewrites the pending effect at that point), so a
        # still-parked thread is never enabled.
        if effect.kind is EffectKind.WAIT:
            return False
        return True

    def snapshot(self) -> Hashable:
        return ("condvar", tuple(tid for tid, _ in self.waiters))

    def save(self) -> Any:
        # The snapshot drops each waiter's mutex; restoring needs it.
        return tuple(self.waiters)

    def restore(self, state: Any) -> None:
        self.waiters = list(state)


class RWLock(SharedObject):
    """A reader-writer lock without writer preference.

    Any number of readers may hold the lock concurrently; a writer
    requires exclusivity.  Release infers the caller's role.
    """

    def __init__(self, world: "World", name: str) -> None:
        super().__init__(world, name)
        self.readers: List[Any] = []
        self.writer: Optional[Any] = None

    def acquire_read(self) -> Effect:
        """Block until no writer holds the lock, then enter shared."""
        return Effect(EffectKind.RW_ACQUIRE_READ, self)

    def acquire_write(self) -> Effect:
        """Block until the lock is completely free, then enter
        exclusive."""
        return Effect(EffectKind.RW_ACQUIRE_WRITE, self)

    def release(self) -> Effect:
        """Exit the lock in whichever role the caller holds."""
        return Effect(EffectKind.RW_RELEASE, self)

    def is_enabled(self, effect: Effect, thread: "ThreadState") -> bool:
        if effect.kind is EffectKind.RW_ACQUIRE_READ:
            return self.writer is None
        if effect.kind is EffectKind.RW_ACQUIRE_WRITE:
            return self.writer is None and not self.readers
        return True

    def apply(self, effect: Effect, thread: "ThreadState") -> Any:
        kind = effect.kind
        if kind is EffectKind.RW_ACQUIRE_READ:
            self.readers.append(thread.tid)
            return None
        if kind is EffectKind.RW_ACQUIRE_WRITE:
            self.writer = thread.tid
            return None
        if kind is EffectKind.RW_RELEASE:
            if self.writer == thread.tid:
                self.writer = None
            elif thread.tid in self.readers:
                self.readers.remove(thread.tid)
            else:
                raise BugSignal(
                    BugKind.LOCK_ERROR,
                    f"thread {thread.tid} released rwlock {self.name} "
                    "it does not hold",
                )
            return None
        return super().apply(effect, thread)

    def snapshot(self) -> Hashable:
        return ("rwlock", tuple(sorted(map(str, self.readers))), self.writer)

    def save(self) -> Any:
        # The snapshot renders readers as sorted strings; keep the ids.
        return (tuple(self.readers), self.writer)

    def restore(self, state: Any) -> None:
        readers, self.writer = state
        self.readers = list(readers)


class Barrier:
    """A one-shot N-party barrier built from library primitives.

    Composite: ``wait`` is a generator to be used with ``yield from``.
    The last arriving thread releases the others through a semaphore.
    """

    def __init__(self, world: "World", name: str, parties: int) -> None:
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.parties = parties
        self._count = AtomicVar(world, f"{name}.count", 0)
        self._sem = Semaphore(world, f"{name}.sem", 0)

    def wait(self):
        """Arrive at the barrier; resumes once all parties arrived.

        Use as ``yield from barrier.wait()``.
        """
        arrived = yield self._count.add(1)
        if arrived == self.parties:
            if self.parties > 1:
                yield self._sem.release(self.parties - 1)
        else:
            yield self._sem.acquire()
