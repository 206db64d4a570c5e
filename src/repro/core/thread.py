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
from dataclasses import dataclass
from hashlib import blake2b
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence, Tuple, Union

from ..errors import ProgramDefinitionError
from .objects import ENCODERS, digest, encode

if TYPE_CHECKING:  # pragma: no cover
    from .effects import Effect
    from .sync import Event


@dataclass(frozen=True, order=True)
class ThreadId:
    """A canonical, hierarchical thread identifier.

    Ordering and hashing use only the path, so labels are free-form
    display names.  The scheduler's enabled set is sorted by path,
    giving deterministic exploration order.
    """

    path: Tuple[int, ...]
    label: str = ""

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
        return hash(self.path)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ThreadId) and self.path == other.path

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
ENCODERS[ThreadId] = lambda value: b"t" + encode(value.path)
ENCODERS[ThreadHandle] = lambda value: b"h" + encode(value.tid.path)


class ThreadState:
    """Mutable per-execution state of one thread.

    The *input hash chain* accumulates a hash of every value the engine
    sends into the generator.  Because thread bodies are deterministic,
    the pair (steps executed, input chain) fully determines the
    thread's local state, which lets state fingerprints identify
    program states without snapshotting generator frames.
    """

    #: Cached :meth:`digest`, cleared by the engine when the thread steps.
    _digest: Optional[int] = None
    _chain: Any = None  # running BLAKE2b of the delivered values' encodings

    def __init__(
        self,
        tid: ThreadId,
        body: Callable[..., Iterator["Effect"]],
        args: Tuple[Any, ...],
        created_event: "Event",
        done_event: "Event",
    ) -> None:
        self.tid = tid
        self.body = body
        self.args = args
        self.created_event = created_event
        self.done_event = done_event

        self.status = ThreadStatus.NEW
        self.generator: Optional[Iterator["Effect"]] = None
        #: The effect the thread will execute when next scheduled
        #: (NV(alpha, t) in the paper's notation).
        self.pending: Optional["Effect"] = None

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
        """Fold a delivered value's canonical encoding into the chain."""
        try:
            data = encode(value)
        except ProgramDefinitionError as exc:
            raise ProgramDefinitionError(f"{exc} (delivered to thread {self.tid})") from None
        if self._chain is None:
            self._chain = blake2b(digest_size=8)
        self._chain.update(data)

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
            self._digest = digest(encode((self.tid, self.local_fingerprint())))
        return self._digest

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ThreadState {self.tid} {self.status.value} "
            f"steps={self.steps} pending={self.pending!r}>"
        )
