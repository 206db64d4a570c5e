"""The operation vocabulary of the controlled runtime.

A thread body is a Python generator.  Every interaction with shared
state is expressed by yielding an :class:`Effect`; the execution engine
performs the effect and sends the result back into the generator::

    def worker():
        yield lock.acquire()
        v = yield counter.read()
        yield counter.write(v + 1)
        yield lock.release()

Local computation between yields is free, which matches the paper's
model where a *step* is exactly one shared-variable access.

Effects are plain immutable descriptions; all semantics live in the
shared objects (:mod:`repro.core.variables`, :mod:`repro.core.sync`,
:mod:`repro.core.heap`) and in the engine
(:mod:`repro.core.execution`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional, Tuple


class EffectKind(enum.Enum):
    """Every operation a thread can perform on shared state."""

    # Plain data-variable accesses.
    READ = "read"
    WRITE = "write"

    # Interlocked operations on atomic (synchronization) variables.
    ATOMIC_READ = "atomic-read"
    ATOMIC_WRITE = "atomic-write"
    CAS = "cas"
    ATOMIC_ADD = "atomic-add"
    EXCHANGE = "exchange"

    # Mutexes and critical sections.
    ACQUIRE = "acquire"
    TRY_ACQUIRE = "try-acquire"
    RELEASE = "release"

    # Events (auto- and manual-reset).
    WAIT = "wait"
    SIGNAL = "signal"
    RESET = "reset"

    # Semaphores.
    SEM_ACQUIRE = "sem-acquire"
    SEM_RELEASE = "sem-release"

    # Condition variables (engine-coordinated).
    CV_WAIT = "cv-wait"
    CV_NOTIFY = "cv-notify"
    CV_BROADCAST = "cv-broadcast"

    # Reader-writer locks.
    RW_ACQUIRE_READ = "rw-acquire-read"
    RW_ACQUIRE_WRITE = "rw-acquire-write"
    RW_RELEASE = "rw-release"

    # Shared heap.
    ALLOC = "alloc"
    FREE = "free"
    HEAP_READ = "heap-read"
    HEAP_WRITE = "heap-write"

    # Thread management.
    SPAWN = "spawn"
    JOIN = "join"
    YIELD = "yield"

    # Engine-internal lifecycle steps.  START is the implicit first
    # operation of every thread: a wait on its creation event (Appendix
    # A of the paper guarantees the first operation of any thread
    # accesses a synchronization variable).  EXIT is the implicit final
    # operation: it signals the thread's termination event, after which
    # the thread is never enabled again.
    START = "start"
    EXIT = "exit"

    # Per-member flags, set below from the kind sets: the engine tests
    # these on every step instead of hashing the member into a set.
    #: In :data:`BLOCKING_KINDS`.
    blocks: bool
    #: In :data:`ENGINE_KINDS`.
    engine: bool
    #: In :data:`DATA_KINDS`.
    data: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Effect kinds that can block the issuing thread (disable it until the
#: resource becomes available).  These are the "potentially-blocking"
#: instructions counted as B in Table 1 of the paper.
BLOCKING_KINDS = frozenset(
    {
        EffectKind.ACQUIRE,
        EffectKind.WAIT,
        EffectKind.SEM_ACQUIRE,
        EffectKind.CV_WAIT,
        EffectKind.RW_ACQUIRE_READ,
        EffectKind.RW_ACQUIRE_WRITE,
        EffectKind.JOIN,
        EffectKind.START,
    }
)

#: Effect kinds that end an execution context even though they may not
#: block: the paper models thread termination as a block on the
#: thread's termination event that is never signalled.
CONTEXT_ENDING_KINDS = BLOCKING_KINDS | {EffectKind.EXIT, EffectKind.YIELD}

#: Kinds handled directly by the execution engine rather than by a
#: shared object's ``apply`` method.
ENGINE_KINDS = frozenset(
    {
        EffectKind.SPAWN,
        EffectKind.JOIN,
        EffectKind.YIELD,
        EffectKind.START,
        EffectKind.EXIT,
        EffectKind.ALLOC,
        EffectKind.CV_WAIT,
        EffectKind.CV_NOTIFY,
        EffectKind.CV_BROADCAST,
    }
)

#: Plain data accesses: race-checked, and under the ``SYNC_ONLY``
#: policy never a scheduling point.
DATA_KINDS = frozenset(
    {EffectKind.READ, EffectKind.WRITE, EffectKind.HEAP_READ, EffectKind.HEAP_WRITE}
)

for _kind in EffectKind:
    _kind.blocks = _kind in BLOCKING_KINDS
    _kind.engine = _kind in ENGINE_KINDS
    _kind.data = _kind in DATA_KINDS
del _kind


@dataclass(frozen=True)
class Effect:
    """An immutable description of one shared-state operation.

    Attributes:
        kind: which operation this is.
        target: the shared object operated on (``None`` for pure
            engine effects such as SPAWN and YIELD).
        args: operation operands (e.g. the value to write, the CAS
            expected/new pair, the thread handle to join).
    """

    kind: EffectKind
    target: Any = None
    args: Tuple[Any, ...] = ()

    def __repr__(self) -> str:
        target = "" if self.target is None else f" {self.target!r}"
        args = "" if not self.args else f" args={self.args!r}"
        return f"<Effect {self.kind}{target}{args}>"

    @property
    def may_block(self) -> bool:
        """Whether this effect can disable the issuing thread."""
        return self.kind.blocks

    @property
    def ends_context(self) -> bool:
        """Whether this effect terminates an execution context."""
        return self.kind in CONTEXT_ENDING_KINDS


def spawn(fn: Any, *args: Any, name: Optional[str] = None) -> Effect:
    """Create a new thread running ``fn(*args)``.

    ``fn`` must be a generator function (a thread body).  The effect's
    result is a :class:`~repro.core.thread.ThreadHandle` which can be
    passed to :func:`join`.

    The spawn step signals the child's creation event, so every write
    the parent performed before the spawn happens-before everything the
    child does (the fork edge of the happens-before relation).
    """
    return Effect(EffectKind.SPAWN, None, (fn, args, name))


def join(handle: Any) -> Effect:
    """Block until the thread behind ``handle`` has terminated.

    Modelled as a wait on the target thread's termination event, which
    creates the join edge of the happens-before relation.
    """
    return Effect(EffectKind.JOIN, None, (handle,))


def sched_yield() -> Effect:
    """A voluntary scheduling point that accesses no shared variable.

    The yielding thread remains enabled, so per the paper's definition
    a switch away from it still counts as a preemption.  Yields are
    useful to widen the scheduling surface of otherwise access-free
    code regions.
    """
    return Effect(EffectKind.YIELD)


def alloc(name: str = "obj", **fields: Any) -> Effect:
    """Allocate a fresh heap object with the given named fields.

    The effect's result is a :class:`~repro.core.heap.HeapRef`.
    """
    return Effect(EffectKind.ALLOC, None, (name, tuple(sorted(fields.items()))))
