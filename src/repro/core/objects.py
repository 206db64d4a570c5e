"""Shared-object base class.

Every piece of shared state in a program under test is a
:class:`SharedObject` registered with a :class:`~repro.core.world.World`.
Objects classify themselves as *synchronization* objects (mutexes,
events, semaphores, atomic variables, ...) or *data* objects (plain
shared variables, heap fields).  The classification drives the
``sync_only`` scheduling-point policy of Section 3.1: scheduling points
are introduced only before accesses to synchronization objects, and a
per-execution race detector verifies that data accesses are ordered by
the happens-before relation.
"""

from __future__ import annotations

import enum
import functools
from hashlib import blake2b
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, Optional

from ..errors import BugKind, ProgramDefinitionError

if TYPE_CHECKING:  # pragma: no cover
    from .effects import Effect
    from .thread import ThreadState
    from .world import World


#: Digests are 64-bit; sums of digests are taken modulo 2**64.
DIGEST_MASK = (1 << 64) - 1


@functools.lru_cache(maxsize=4096)
def _encode_str(value: str) -> bytes:
    # Cached: snapshots repeat the same tags and names at every step.
    data = value.encode("utf-8", "surrogatepass")
    return b"s%d:" % len(data) + data


#: Self-delimiting encoder per type; thread ids register in thread.py.
ENCODERS: Dict[type, Callable[[Any], bytes]] = {
    type(None): lambda value: b"N",
    type(Ellipsis): lambda value: b"E",
    type(NotImplemented): lambda value: b"I",
    bool: lambda value: b"T" if value else b"F",
    int: lambda value: b"i%d;" % value,
    float: lambda value: b"f" + float.hex(value).encode() + b";",
    str: _encode_str,
    tuple: lambda value: b"(%d:" % len(value) + b"".join(map(encode, value)),
    list: lambda value: b"[%d:" % len(value) + b"".join(map(encode, value)),
    frozenset: lambda value: b"{%d:" % len(value) + b"".join(sorted(map(encode, value))),
    enum.Enum: lambda value: b"e"
    + _encode_str(f"{type(value).__module__}.{type(value).__qualname__}:{value.name}"),
}


def encode(value: Any) -> bytes:
    """Canonical bytes for a state value, the same in every process.

    Covers the types in :data:`ENCODERS` and their subclasses.  Anything
    else raises :class:`ProgramDefinitionError`: a ``repr`` or identity
    fallback would make fingerprints differ between processes.
    """
    cls = type(value)
    encoder = ENCODERS.get(cls)
    if encoder is None:
        base = next((base for base in cls.__mro__ if base in ENCODERS), None)
        if base is None:
            raise ProgramDefinitionError(f"type {cls.__qualname__!r} has no canonical state encoding")
        encoder = ENCODERS[cls] = ENCODERS[base]
    return encoder(value)


def digest(data: bytes) -> int:
    """64-bit BLAKE2b digest of ``data`` as an unsigned integer."""
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little")


class BugSignal(Exception):
    """Internal signal: the current step triggered a program bug.

    Raised by shared objects or the engine while applying an effect;
    the engine converts it into a :class:`~repro.errors.BugReport` and
    marks the execution as failed.  Never escapes the engine.
    """

    def __init__(self, kind: BugKind, message: str, **details: Any) -> None:
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.details = tuple(sorted(details.items()))


class SharedObject:
    """Base class for all shared state visible to multiple threads.

    Subclasses implement:

    * :meth:`is_enabled` -- whether a pending effect on this object can
      execute now (``False`` means the issuing thread is blocked).
    * :meth:`apply` -- perform the effect, returning the value sent
      back into the thread generator.
    * :meth:`snapshot` -- a summary of the object's current state in
      values :func:`encode` accepts, folded into the state fingerprint.
    * :meth:`restore` (optional) -- put the object back into a state
      its :meth:`save` returned earlier in the same execution.  An
      execution whose objects all define it can be *rewound* instead
      of replayed (see ``Execution.rewind``); a subclass that
      overrides ``snapshot`` or ``save`` but not ``restore`` cannot.
    """

    #: Whether accesses to this object are synchronization accesses.
    is_sync: bool = True
    #: Whether :meth:`restore` inverts :meth:`save` for this kind.
    restorable: bool = False
    #: The digest held in the world's running sum; whether it is stale.
    _digest: int = 0
    _dirty: bool = False
    #: ``b"(2:" + encode(name)``, the constant head of :meth:`digest`.
    _prefix: Optional[bytes] = None

    def __init__(self, world: "World", name: str) -> None:
        self.world = world
        self.name = name
        world._register(self)

    # -- semantics ----------------------------------------------------

    def is_enabled(self, effect: "Effect", thread: "ThreadState") -> bool:
        """Whether ``effect`` issued by ``thread`` can execute now."""
        return True

    def apply(self, effect: "Effect", thread: "ThreadState") -> Any:
        """Execute ``effect``; return the value for the generator."""
        raise NotImplementedError(
            f"{type(self).__name__} does not handle {effect.kind}"
        )

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        if "restore" in own:
            cls.restorable = True
        elif "snapshot" in own or "save" in own:
            cls.restorable = False

    def snapshot(self) -> Hashable:
        """Summary of current state for fingerprinting."""
        raise NotImplementedError

    def save(self) -> Any:
        """The complete state :meth:`restore` takes; the snapshot by default."""
        return self.snapshot()

    def restore(self, state: Any) -> None:
        """Adopt ``state``, a value :meth:`save` returned."""
        raise NotImplementedError(f"{type(self).__name__} cannot be restored")

    def digest(self) -> int:
        """Fresh digest of ``encode((name, snapshot()))``."""
        prefix = self._prefix
        if prefix is None:
            prefix = self._prefix = b"(2:" + _encode_str(self.name)
        try:
            return digest(prefix + encode(self.snapshot()))
        except ProgramDefinitionError as exc:
            raise ProgramDefinitionError(f"{exc} (shared object {self.name!r})") from None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"

    def __hash__(self) -> int:
        # Hash by (stable, per-execution-unique) name so that shared
        # objects can be *stored as values* in shared variables without
        # breaking determinism across replays: the default
        # identity hash differs between the fresh worlds of two
        # executions of the same schedule.  Equality stays identity.
        return hash(self.name)


ENCODERS[SharedObject] = lambda value: b"o" + _encode_str(value.name)

#: Marks a value that does not exist (a journal entry for a key not yet set).
ABSENT: Any = type("Absent", (), {"__repr__": lambda self: "ABSENT"})()
