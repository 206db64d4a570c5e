"""Error types and bug reports for the repro model checkers.

Two kinds of failures flow through the system:

* **Tool errors** (subclasses of :class:`ReproError`) indicate misuse of
  the library itself -- a malformed program, an illegal scheduling
  request, an unhashable shared value.  These raise immediately.

* **Bugs** (instances of :class:`BugReport`) are defects *in the program
  under test* discovered during exploration -- assertion failures,
  deadlocks, data races, use-after-free.  A bug never raises out of the
  engine; it is recorded on the execution and surfaced through the
  search result so that the checker can report the minimal-preemption
  witness schedule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .core.thread import ThreadId


class ReproError(Exception):
    """Base class for all errors raised by the repro library itself."""


class ProgramDefinitionError(ReproError):
    """The program under test is malformed (bad setup, bad thread body)."""


class SchedulingError(ReproError):
    """An illegal scheduling request, e.g. stepping a disabled thread."""


class ReplayDivergenceError(ReproError):
    """A recorded schedule no longer matches the program's behavior.

    This indicates nondeterminism in the program under test, which
    violates the core assumption (Section 2 of the paper) that thread
    scheduling is the only source of nondeterminism.
    """


class ScheduleMismatch(ReplayDivergenceError):
    """A saved witness schedule cannot be replayed against this program.

    Raised (or classified, see :mod:`repro.trace.replay`) when a
    persisted trace is replayed against a program that no longer agrees
    with the recording: the program's thread structure changed, the
    schedule names a thread that is never created, a scheduled thread is
    not enabled where the recording says it ran, or the program
    terminates before the schedule is exhausted.

    Attributes:
        flavor: which way the replay diverged -- one of ``fingerprint``,
            ``unknown-thread``, ``not-enabled``, ``early-termination``.
        step_index: schedule position at which the divergence was
            detected (``-1`` for pre-replay checks such as the program
            fingerprint).
        scheduled: path of the thread the trace wanted to run, if any.
        enabled: paths of the threads actually enabled at that point.
    """

    def __init__(
        self,
        flavor: str,
        message: str,
        step_index: int = -1,
        scheduled: Optional[Tuple[int, ...]] = None,
        enabled: Tuple[Tuple[int, ...], ...] = (),
    ) -> None:
        super().__init__(message)
        self.flavor = flavor
        self.step_index = step_index
        self.scheduled = scheduled
        self.enabled = enabled

    def describe(self) -> str:
        """One-line rendering used by replay reports and the CLI."""
        parts = [f"schedule mismatch ({self.flavor}): {self.args[0]}"]
        if self.step_index >= 0:
            parts.append(f"at step {self.step_index}")
        return " ".join(parts)


class SearchBudgetExceeded(ReproError):
    """Internal control-flow signal: the search budget was exhausted."""


class SearchInterrupted(ReproError):
    """Internal control-flow signal: stop the search immediately.

    Raised when ``stop_on_first_bug`` is set and a bug has been found.
    """


class ProgramAssertionError(AssertionError):
    """Raised by program-under-test code via :func:`repro.check`.

    The engine converts it into a :class:`BugReport` of kind
    ``ASSERTION``; it never escapes the execution engine.
    """

    def __init__(self, message: str = "assertion failed") -> None:
        super().__init__(message)
        self.message = message


class BugKind(enum.Enum):
    """Classification of bugs detectable by the checkers."""

    ASSERTION = "assertion"
    DEADLOCK = "deadlock"
    DATA_RACE = "data-race"
    USE_AFTER_FREE = "use-after-free"
    DOUBLE_FREE = "double-free"
    LOCK_ERROR = "lock-error"
    INVARIANT = "invariant"
    UNCAUGHT_EXCEPTION = "uncaught-exception"
    LIVELOCK = "livelock"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class BugReport:
    """A defect found in the program under test.

    Attributes:
        kind: the bug classification.
        message: human-readable one-line description.
        thread: the thread whose step triggered the bug (``None`` for
            whole-program conditions such as deadlock).
        schedule: the scheduling choices that reproduce the bug.  For
            the stateless checker this is a complete replay recipe.
        preemptions: number of preempting context switches in the
            witness execution (NP in the paper's Appendix A).
        step_index: index of the triggering step within the execution.
        details: extra structured data (e.g. the two racing accesses).
    """

    kind: BugKind
    message: str
    thread: Optional["ThreadId"] = None
    schedule: Tuple["ThreadId", ...] = ()
    preemptions: int = 0
    step_index: int = -1
    details: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)

    @property
    def signature(self) -> Tuple[Any, ...]:
        """Identity used to deduplicate reports of the same defect.

        Two witnesses of the same bug (different schedules) share a
        signature: the kind, the message and the triggering thread.
        """
        return (self.kind, self.message, self.thread)

    @property
    def identity(self) -> Tuple[Any, ...]:
        """Stable identity of this exact report: kind plus witness.

        Unlike :attr:`signature` it distinguishes different witnesses
        of the same defect, and unlike ``hash()``-derived keys it is
        stable across processes (thread ids compare by path), so
        cross-process deduplication in ``SearchContext.absorb`` and the
        determinism tests can rely on it.
        """
        return (self.kind, tuple(t.path for t in self.schedule))

    def describe(self) -> str:
        """Multi-line human-readable rendering of the report."""
        lines = [f"[{self.kind}] {self.message}"]
        if self.thread is not None:
            lines.append(f"  thread:      {self.thread}")
        lines.append(f"  preemptions: {self.preemptions}")
        lines.append(f"  steps:       {len(self.schedule)}")
        if self.schedule:
            rendered = " ".join(str(t) for t in self.schedule)
            lines.append(f"  schedule:    {rendered}")
        for key, value in self.details:
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.message} (preemptions={self.preemptions})"
