"""The uniform state-space interface explored by search strategies.

Algorithm 1 of the paper is written against an abstract notion of
state with ``Execute`` and ``enabled``; this module defines that
interface (:class:`StateSpace`) and its stateless realization
(:class:`ProgramStateSpace`), where a "state" is simply the schedule
that reaches it and the underlying :class:`~repro.core.execution.Execution`
is replayed on demand -- exactly how the stateless CHESS model checker
revisits states.  The explicit-state ZING checker provides its own
realization in :mod:`repro.zing.checker`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Hashable, Optional, Tuple

from ..errors import BugReport
from .execution import Execution, ExecutionConfig, Schedule, SchedulingPolicy
from .program import Program
from .thread import ThreadId

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..obs.instrument import Instrumentation


class StateSpace(abc.ABC):
    """What a search strategy needs from a program's state space.

    States are opaque, immutable tokens.  ``execute`` never mutates its
    argument: it returns a new token, so strategies are free to revisit
    states in any order (breadth-first over preemption bounds in ICB,
    depth-first in DFS, uniformly at random in random walk).
    """

    @abc.abstractmethod
    def initial_state(self) -> object:
        """The unique initial state s0."""

    @abc.abstractmethod
    def enabled(self, state: object) -> Tuple[ThreadId, ...]:
        """The threads enabled in ``state``, in canonical order."""

    @abc.abstractmethod
    def execute(self, state: object, tid: ThreadId) -> object:
        """state.Execute(tid): run ``tid`` one step from ``state``."""

    @abc.abstractmethod
    def last_thread(self, state: object) -> Optional[ThreadId]:
        """L(alpha): the thread that executed the last step."""

    @abc.abstractmethod
    def preemptions(self, state: object) -> int:
        """NP(alpha): preempting context switches along this path."""

    @abc.abstractmethod
    def fingerprint(self, state: object) -> Hashable:
        """Canonical identity of ``state`` (for coverage and caching)."""

    @abc.abstractmethod
    def is_terminal(self, state: object) -> bool:
        """Whether no thread is enabled (or a bug failed the path)."""

    @abc.abstractmethod
    def bugs(self, state: object) -> Tuple[BugReport, ...]:
        """All bugs discovered along the path ending at ``state``."""

    def schedule_of(self, state: object) -> Schedule:
        """The scheduling choices reaching ``state`` (replay recipe).

        Optional; spaces that cannot reconstruct it return ``()``.
        """
        return ()

    def thread_count(self, state: object) -> Optional[int]:
        """Number of threads that exist at ``state`` (None if unknown)."""
        return None


class ProgramStateSpace(StateSpace):
    """Stateless state space of a :class:`Program`.

    A state is the tuple of scheduling choices reaching it.  The space
    keeps a single live :class:`Execution`.  A state that extends the
    live execution's schedule is reached by running the extra steps.
    Any other state is rebuilt -- the paper's stateless exploration --
    in one of two ways:

    * *restored*: the live execution is rewound in place to the longest
      prefix of the state's schedule that it holds
      (:meth:`Execution.rewind`: no engine step runs), then only the
      remaining steps run;
    * *replayed*: the program is re-executed from scratch.  This is
      the fallback when no prefix is held, or the live execution
      cannot be rewound (in-vivo programs, monitors, object kinds
      without ``restore``).

    ``replays`` counts the states rebuilt either way and
    ``replay_steps`` the steps re-executed to reach requested states,
    as in a replay-only checker, so both depend only on the sequence of
    requested states (the parallel engine's merged counters equal the
    serial engine's).  ``restores`` and ``restore_steps`` say how many
    of those rebuilds were rewinds and how many of the steps they kept
    instead of running again: ``replay_steps - restore_steps`` engine
    steps were re-executed.
    """

    def __init__(
        self,
        program: Program,
        config: Optional[ExecutionConfig] = None,
        obs: Optional["Instrumentation"] = None,
    ):
        self.program = program
        self.config = config or ExecutionConfig()
        self.obs = obs
        self._current: Optional[Execution] = None
        #: The schedule ``_current`` was last positioned at.
        self._state: Optional[Schedule] = None
        #: States rebuilt from scratch: replayed or restored.
        self.replays = 0
        #: Steps re-executed to reach requested states.
        self.replay_steps = 0
        #: Rebuilds that rewound the live execution to a prefix.
        self.restores = 0
        #: Replayed steps those rewinds kept instead of running again.
        self.restore_steps = 0

    def attach_obs(self, obs: Optional["Instrumentation"]) -> None:
        """(Re)bind instrumentation; workers rebind per shard task."""
        self.obs = obs
        if self._current is not None:
            self._current.obs = obs

    # -- replay machinery ------------------------------------------------

    def _materialize(self, schedule: Schedule) -> Execution:
        """Return a live execution positioned exactly at ``schedule``."""
        current = self._current
        done = len(current.schedule) if current is not None else 0
        held = 0
        if current is not None:
            if done == len(schedule) and schedule is self._state:
                return current
            # The longest prefix of ``schedule`` the live path holds.
            live = current.schedule
            limit = min(done, len(schedule))
            while held < limit and (
                live[held] is schedule[held] or live[held] == schedule[held]
            ):
                held += 1
            if held == done == len(schedule):
                self._state = schedule
                return current
        # Rebuilding or re-executing steps: the "replay" phase,
        # whichever query forced it.  It has no latency histogram:
        # only a profiling run times it.
        obs = self.obs
        t0 = obs.hook_replay.start() if obs is not None and obs.profiling else 0.0
        rebuilt = restored = 0
        if current is not None and held == done and not current.finished:
            steps = len(schedule) - done  # ``schedule`` extends the live execution
        else:
            rebuilt, steps = 1, len(schedule)
            if current is not None and 0 < held < done and current._log is not None:
                current.rewind(held)
                restored = held
            else:
                current, held = Execution(self.program, self.config), 0
                current.obs = obs
                current.keep_rewind_log()
        for tid in schedule[held:]:
            current.execute(tid)
        self._current, self._state = current, schedule
        self.replays += rebuilt
        self.replay_steps += steps
        if restored:
            self.restores += 1
            self.restore_steps += restored
        if obs is not None:
            obs.replayed(rebuilt, steps, restored)
            if t0:
                obs.hook_replay.stop(t0)
        return current

    def execution_at(self, state: object) -> Execution:
        """The live execution for ``state`` (replaying if needed)."""
        current = self._current
        # The most common query: the state last reached, still current.
        if (
            state is self._state
            and current is not None
            and len(current.schedule) == len(state)
        ):
            return current
        return self._materialize(self._as_schedule(state))

    @staticmethod
    def _as_schedule(state: object) -> Schedule:
        assert isinstance(state, tuple)
        return state

    # -- StateSpace interface -----------------------------------------------

    def initial_state(self) -> Schedule:
        return ()

    def enabled(self, state: object) -> Tuple[ThreadId, ...]:
        obs = self.obs
        if obs is None or not obs.profiling:
            # The "schedule" phase has no latency histogram: only a
            # profiling run times it.
            return self.execution_at(state).enabled_threads()
        # A stateless replay this query forces is billed to "replay".
        t0 = obs.hook_schedule.start()
        result = self.execution_at(state).enabled_threads()
        obs.hook_schedule.stop(t0)
        return result

    def execute(self, state: object, tid: ThreadId) -> Schedule:
        obs = self.obs
        t0 = obs.hook_execute.start() if obs is not None else 0.0
        execution = self.execution_at(state)
        execution.execute(tid)
        successor = self._state = tuple(execution.schedule)
        if obs is not None and t0:
            obs.hook_execute.stop(t0)
        return successor

    def last_thread(self, state: object) -> Optional[ThreadId]:
        schedule = self._as_schedule(state)
        return schedule[-1] if schedule else None

    def preemptions(self, state: object) -> int:
        return self.execution_at(state).preemptions

    def fingerprint(self, state: object) -> Hashable:
        obs = self.obs
        t0 = obs.hook_fingerprint.start() if obs is not None else 0.0
        result = self.execution_at(state).fingerprint()
        if obs is not None and t0:
            obs.hook_fingerprint.stop(t0)
        return result

    def is_terminal(self, state: object) -> bool:
        return self.execution_at(state).finished

    def bugs(self, state: object) -> Tuple[BugReport, ...]:
        return tuple(self.execution_at(state).bugs)

    def schedule_of(self, state: object) -> Schedule:
        return self._as_schedule(state)

    def thread_count(self, state: object) -> Optional[int]:
        return len(self.execution_at(state).threads)

    @property
    def supports_por(self) -> bool:
        """Whether pending footprints are exact (EVERY_ACCESS only)."""
        return self.config.policy is SchedulingPolicy.EVERY_ACCESS

    def pending_footprint(self, state: object, tid: ThreadId) -> frozenset:
        """The shared objects ``tid``'s next step will touch."""
        return self.execution_at(state).pending_footprint(tid)

    # -- statistics helpers ---------------------------------------------------

    def execution_stats(self, state: object) -> Tuple[int, int, int]:
        """(total accesses K, blocking steps B, preemptions c) at state.

        The quantities of Table 1 of the paper, measured on the
        execution reaching ``state``.
        """
        execution = self.execution_at(state)
        blocking = sum(t.blocking_steps for t in execution.threads.values())
        return execution.total_accesses, blocking, execution.preemptions
