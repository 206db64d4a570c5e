"""Thread identities and per-thread execution state.

Thread identifiers are *hierarchical*: a root thread created by the
program's setup gets path ``(i,)`` in declaration order, and the k-th
thread spawned by a parent gets the parent's path extended with ``k``.
This makes identifiers canonical across equivalent executions (two
interleavings with the same happens-before relation name every thread
identically), which in turn makes state fingerprints canonical.

Per Appendix A of the paper, every thread's first operation is a wait
on its *creation event* (signalled by the parent's spawn step, or
pre-signalled for root threads) and its conceptual last operation is a
block on its *termination event*.  We realize this with the implicit
START and EXIT steps of :mod:`repro.core.execution`; ``join`` waits on
the termination event.
"""

from __future__ import annotations

import enum
import functools
import weakref
from dataclasses import dataclass
from hashlib import blake2b
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import ProgramDefinitionError
from .objects import ENCODERS, MEMO_TYPES, digest, encode

if TYPE_CHECKING:  # pragma: no cover
    from .effects import Effect
    from .sync import Event


@functools.total_ordering
class ThreadId:
    """A canonical, hierarchical thread identifier.

    Equality, ordering and hashing use only the path, so labels are
    free-form display names.  The scheduler's enabled set is sorted by
    path, giving deterministic exploration order.

    Identifiers are immutable and interned by ``(path, label)``: the
    schedules a search hands back to the engine hold the very objects
    the engine created, so membership tests and dictionary lookups on
    the hot path usually succeed on identity.  Interning is only a
    shortcut; two identifiers with the same path are equal whether or
    not they are the same object (an id rebuilt from a trace with
    another label, or one made in another process).
    """

    __slots__ = ("path", "label", "_hash", "_encoded", "__weakref__")

    path: Tuple[int, ...]
    label: str
    _hash: int
    #: ``encode`` of the id (``b"t"`` + the path's encoding).
    _encoded: bytes

    _interned: ClassVar[
        "weakref.WeakValueDictionary[Tuple[Tuple[int, ...], str], ThreadId]"
    ] = weakref.WeakValueDictionary()

    def __new__(cls, path: Sequence[int], label: str = "") -> "ThreadId":
        parts = tuple(path)
        key = (parts, label)
        self = cls._interned.get(key)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "path", parts)
            object.__setattr__(self, "label", label)
            object.__setattr__(self, "_hash", hash(parts))
            object.__setattr__(self, "_encoded", b"t" + encode(parts))
            cls._interned[key] = self
        return self

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"ThreadId is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ThreadId is immutable; cannot delete {name!r}")

    def __reduce__(self) -> Tuple[Any, ...]:
        # Unpickling goes through __new__, so it interns in the new process.
        return (ThreadId, (self.path, self.label))

    def child(self, index: int, label: str = "") -> "ThreadId":
        """The identifier of this thread's ``index``-th spawned child."""
        return ThreadId(self.path + (index,), label or f"{self.label}.{index}")

    @classmethod
    def from_path(
        cls, path: Union[str, Sequence[int]], label: str = ""
    ) -> "ThreadId":
        """Rebuild an identifier from a serialized path.

        The inverse of :attr:`path` (and of the dotted rendering
        ``".".join(map(str, path))``), so thread identities round-trip
        losslessly through JSON trace files.  Accepts either a sequence
        of non-negative integers or a dotted string like ``"0.2.1"``.
        """
        if isinstance(path, str):
            text = path.strip()
            if not text:
                raise ValueError("thread path string must be non-empty")
            try:
                parts = tuple(int(piece) for piece in text.split("."))
            except ValueError as exc:
                raise ValueError(f"malformed thread path {path!r}") from exc
        else:
            parts = tuple(path)
            if not parts:
                raise ValueError("thread path must be non-empty")
            if not all(isinstance(piece, int) and not isinstance(piece, bool) for piece in parts):
                raise ValueError(f"thread path must contain only integers, got {path!r}")
        if any(piece < 0 for piece in parts):
            raise ValueError(f"thread path indices must be non-negative, got {parts!r}")
        return cls(parts, label)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, ThreadId) and self.path == other.path)

    def __lt__(self, other: "ThreadId") -> bool:
        if not isinstance(other, ThreadId):
            return NotImplemented
        return self.path < other.path

    def __str__(self) -> str:
        return self.label or ".".join(map(str, self.path))

    def __repr__(self) -> str:
        return f"ThreadId({self.path!r}, {self.label!r})"


class ThreadStatus(enum.Enum):
    """Lifecycle of a thread under test."""

    #: Created but has not yet executed its START step.
    NEW = "new"
    #: Executing its body.
    ACTIVE = "active"
    #: Body completed and EXIT step executed.
    FINISHED = "finished"
    #: Body raised; the execution is failed.
    FAILED = "failed"

    #: ``encode(value)``, set below; thread digests append it as is.
    encoded: bytes


for _status in ThreadStatus:
    _status.encoded = encode(_status.value)
del _status


@dataclass(frozen=True)
class ThreadHandle:
    """The value a ``spawn`` effect yields back to the parent.

    Pass it to :func:`repro.core.effects.join` to wait for the child.
    Hashable so it can flow through state fingerprints.
    """

    tid: ThreadId

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<handle {self.tid}>"


# Identity is the path alone, so labels stay out of the encoding.
ENCODERS[ThreadId] = lambda value: value._encoded
MEMO_TYPES.add(ThreadId)
ENCODERS[ThreadHandle] = lambda value: b"h" + value.tid._encoded[1:]


class ThreadState:
    """Mutable per-execution state of one thread.

    :attr:`inputs` holds every value the engine has sent into the
    generator, and the *input hash chain* accumulates their encodings.
    A thread body is deterministic and keeps its local state in its
    generator, so that state is a function of the values delivered to
    it: the pair (steps executed, input chain) identifies it, which
    lets state fingerprints identify program states without
    snapshotting generator frames, and ``Execution.rewind`` rebuilds
    it by sending a fresh generator the same inputs.  Bodies must
    therefore not mutate Python state that setup created.
    """

    #: Cached :meth:`digest`, cleared by the engine when the thread steps.
    _digest: Optional[int] = None
    _chain: Any = None  # running BLAKE2b of the delivered values' encodings
    #: Whether :attr:`pending` can execute now; ``None`` until the
    #: engine evaluates it (see ``Execution.enabled_threads``).
    enabled: Optional[bool] = None

    def __init__(
        self,
        tid: ThreadId,
        body: Callable[..., Iterator["Effect"]],
        args: Tuple[Any, ...],
        created_event: "Event",
        done_event: "Event",
    ) -> None:
        self.tid = tid
        #: ``encode((tid, local_fingerprint()))`` up to the three scalars.
        self._prefix = b"(2:" + tid._encoded + b"(3:"
        self.body = body
        self.args = args
        self.created_event = created_event
        self.done_event = done_event

        self.status = ThreadStatus.NEW
        self.generator: Optional[Iterator["Effect"]] = None
        #: The effect the thread will execute when next scheduled
        #: (NV(alpha, t) in the paper's notation).
        self.pending: Optional["Effect"] = None
        #: Every value sent into the generator, in order.
        self.inputs: List[Any] = []

        #: Number of steps (shared accesses) this thread has executed.
        self.steps = 0
        #: Number of potentially-blocking steps executed (B in Table 1).
        self.blocking_steps = 0
        #: Counter for canonical naming of spawned children and
        #: heap allocations performed by this thread.
        self.spawn_counter = 0
        self.alloc_counter = 0

    # -- bookkeeping ----------------------------------------------------

    def record_input(self, value: Any) -> None:
        """Keep a delivered value and fold its encoding into the chain."""
        try:
            data = encode(value)
        except ProgramDefinitionError as exc:
            raise ProgramDefinitionError(f"{exc} (delivered to thread {self.tid})") from None
        if self._chain is None:
            self._chain = blake2b(digest_size=8)
        self._chain.update(data)
        self.inputs.append(value)

    @property
    def input_chain(self) -> int:
        """Digest of all values delivered so far (0 before the first)."""
        return 0 if self._chain is None else int.from_bytes(self._chain.digest(), "little")

    @property
    def alive(self) -> bool:
        """Whether the thread can still take steps."""
        return self.status in (ThreadStatus.NEW, ThreadStatus.ACTIVE)

    def local_fingerprint(self) -> Tuple[Any, ...]:
        """Summary of the thread's local state."""
        return (self.status.value, self.steps, self.input_chain)

    def digest(self) -> int:
        """Digest of ``encode((tid, local_fingerprint()))``, cached."""
        if self._digest is None:
            self._digest = digest(
                self._prefix
                + self.status.encoded
                + b"i%d;i%d;" % (self.steps, self.input_chain)
            )
        return self._digest

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ThreadState {self.tid} {self.status.value} "
            f"steps={self.steps} pending={self.pending!r}>"
        )
