"""The deterministic execution engine.

An :class:`Execution` runs one schedule of a program under complete
scheduler control, realizing the paper's formal model:

* the program starts from the unique initial state built by the setup
  function;
* at every *scheduling point* the engine exposes the set of enabled
  threads (``enabled(alpha)``) and the search strategy picks one;
* :meth:`Execution.execute` runs the chosen thread for one step,
  updating happens-before clocks, race-detector state, the preemption
  count NP (Appendix A.1), and the dirty marks of the state fingerprint;
* the engine records every bug (assertion failure, deadlock, data
  race, use-after-free, ...) with the witness schedule and its
  preemption count.

Scheduling-point policies (Section 3.1 of the paper):

* ``EVERY_ACCESS`` -- a scheduling point after every shared-variable
  access: the baseline semantics of Section 2;
* ``SYNC_ONLY`` -- scheduling points only *before* synchronization
  accesses; the data accesses following a sync access execute
  atomically with it.  This is the reduction of Section 3.1, sound as
  long as each execution is checked for data races (Theorems 2 and 3),
  which the engine does by default.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import (
    BugKind,
    BugReport,
    ProgramAssertionError,
    ProgramDefinitionError,
    SchedulingError,
)
from ..races.goldilocks import GoldilocksDetector
from ..races.happens_before import HBTracker
from .effects import Effect, EffectKind
from .heap import HeapRef
from .objects import DIGEST_MASK, BugSignal, SharedObject
from .program import Program
from .sync import CondVar, Event, Mutex
from .thread import ThreadHandle, ThreadId, ThreadState, ThreadStatus

Schedule = Tuple[ThreadId, ...]

#: Fields of a per-step rewind-log entry (see ``Execution.rewind``):
#: the changed threads' and the touched objects' states before the
#: step, then the step's starting position in the HB and Goldilocks
#: journals, the bug and access counts, and the numbers of threads and
#: world objects that existed.
_THREADS, _OBJECTS, _HB, _GL, _BUGS, _ACCESSES, _THREAD_COUNT, _OBJECT_COUNT = range(8)


def _thread_state(thread: ThreadState) -> Tuple[Any, ...]:
    """What :meth:`Execution.rewind` puts back on ``thread``.

    The input chain is copied, because the thread keeps folding values
    into its own; the inputs are kept as their count.
    """
    chain = thread._chain
    return (
        thread.status,
        thread.pending,
        thread.steps,
        thread.blocking_steps,
        None if chain is None else chain.copy(),
        thread.spawn_counter,
        thread.alloc_counter,
        len(thread.inputs),
    )


class SchedulingPolicy(enum.Enum):
    """Where scheduling points are introduced (Section 3.1)."""

    EVERY_ACCESS = "every-access"
    SYNC_ONLY = "sync-only"


class RaceDetection(enum.Enum):
    """Which data-race detector(s) run on each execution."""

    NONE = "none"
    VECTOR_CLOCK = "vector-clock"
    GOLDILOCKS = "goldilocks"
    BOTH = "both"


@dataclass(frozen=True)
class ExecutionConfig:
    """Configuration shared by every execution of one checking run."""

    policy: SchedulingPolicy = SchedulingPolicy.SYNC_ONLY
    race_detection: RaceDetection = RaceDetection.VECTOR_CLOCK
    #: Use the strict Appendix-A race definition (read-read conflicts).
    strict_races: bool = False
    #: Whether a detected race fails the execution (it must for the
    #: sync-only reduction to remain sound; see Theorem 3).
    races_are_fatal: bool = True
    #: Report a deadlock when no thread is enabled but some are alive.
    deadlock_is_bug: bool = True
    #: Upper bound on shared accesses within one SYNC_ONLY big step;
    #: exceeding it means the thread spins on data variables, which can
    #: never be broken by a context switch, so it is reported as a
    #: livelock bug in the program under test.
    max_accesses_per_step: int = 20_000
    #: Monitor factories: callables receiving the execution and
    #: returning monitor objects (see :mod:`repro.monitors`).
    monitors: Tuple[Callable[["Execution"], Any], ...] = ()
    #: Extension beyond the paper: treat ``free`` as a write to every
    #: field of the freed object, so a free that is merely *unordered*
    #: with a field access is reported as a race even on schedules
    #: where the access happens to execute first.  The paper's CHESS
    #: only observes the crash when the access physically follows the
    #: free, which is what the default reproduces.
    free_conflicts: bool = False


class StepRecord(NamedTuple):
    """One scheduling step (possibly a multi-access big step).

    A named tuple: immutable, and built on every engine step, live or
    replayed, so it must be cheap to construct.
    """

    index: int
    tid: ThreadId
    preempting: bool
    #: Every shared access performed in this step: (kind, target name).
    accesses: Tuple[Tuple[EffectKind, Optional[str]], ...]
    #: Preemption count NP after the step.
    preemptions: int

    @property
    def kind(self) -> EffectKind:
        """The scheduling-visible (first) access of the step."""
        return self.accesses[0][0] if self.accesses else EffectKind.YIELD


class Execution:
    """One controlled execution of a program.

    The basic interaction loop of a search strategy is::

        ex = Execution(program, config)
        while not ex.finished:
            tid = pick(ex.enabled_threads())
            ex.execute(tid)

    ``finished`` becomes true at a terminal state (every thread done or
    blocked) or as soon as a bug fails the execution.
    """

    def __init__(self, program: Program, config: Optional[ExecutionConfig] = None):
        self.program = program
        self.config = config or ExecutionConfig()

        world, specs = program.instantiate()
        self.world = world
        self.threads: Dict[ThreadId, ThreadState] = {}
        #: The threads sorted by path, the order of the enabled set.
        self._order: List[ThreadState] = []
        #: Objects the current step touched; consumed by enabled_threads.
        self._touched: List[SharedObject] = []
        for i, (label, body, args) in enumerate(specs):
            tid = ThreadId((i,), label)
            self._add_thread(tid, body, args, created=True)

        self.schedule: List[ThreadId] = []
        self.step_records: List[StepRecord] = []
        self.bugs: List[BugReport] = []
        self.preemptions = 0
        self.last_tid: Optional[ThreadId] = None
        self.total_accesses = 0
        self.failed = False
        self.completed = False
        self.deadlocked = False
        #: Per-step caches, cleared by :meth:`execute`.
        self._enabled: Optional[Tuple[ThreadId, ...]] = None
        self._fingerprint: Optional[int] = None

        #: Optional Instrumentation, bound by ProgramStateSpace; the
        #: race-check sites below time and count through it.
        self.obs = None

        self._every_access = self.config.policy is SchedulingPolicy.EVERY_ACCESS
        self.hb = HBTracker(strict=self.config.strict_races)
        use_gl = self.config.race_detection in (
            RaceDetection.GOLDILOCKS,
            RaceDetection.BOTH,
        )
        self.goldilocks: Optional[GoldilocksDetector] = (
            GoldilocksDetector() if use_gl else None
        )
        self._use_vc_races = self.config.race_detection in (
            RaceDetection.VECTOR_CLOCK,
            RaceDetection.BOTH,
        )
        self.monitors = [factory(self) for factory in self.config.monitors]

        #: What :meth:`rewind` needs, kept along this execution's path
        #: only (O(depth) memory): one log entry per step, and what each
        #: object's ``save`` last returned (at its creation, or after
        #: the last step that touched it).  ``None`` unless
        #: :meth:`keep_rewind_log` started it and the execution can
        #: still be rewound.
        self._log: Optional[List[Tuple[Any, ...]]] = None
        self._saved: Dict[str, Any] = {}
        #: ``(thread, state)`` of the threads the current step changes,
        #: before it (notify adds its waiters').
        self._befores: List[Tuple[ThreadState, Tuple[Any, ...]]] = []

    # -- thread management ---------------------------------------------------

    def _add_thread(
        self,
        tid: ThreadId,
        body: Callable[..., Any],
        args: Tuple[Any, ...],
        created: bool,
    ) -> ThreadState:
        prefix = "$thread." + ".".join(map(str, tid.path))
        created_event = Event(self.world, f"{prefix}.created", initial=created)
        done_event = Event(self.world, f"{prefix}.done", initial=False)
        thread = ThreadState(tid, body, args, created_event, done_event)
        thread.pending = Effect(EffectKind.START, created_event)
        self.threads[tid] = thread
        order = self._order
        order.append(thread)
        if len(order) > 1 and order[-2].tid.path > tid.path:
            order.sort(key=lambda t: t.tid.path)
        return thread

    # -- state queries -----------------------------------------------------

    @property
    def finished(self) -> bool:
        """No further scheduling is possible."""
        return self.failed or self.completed

    def enabled_threads(self) -> Tuple[ThreadId, ...]:
        """The set enabled(alpha): threads whose pending step can run.

        Kept up to date step by step rather than rebuilt.  A thread's
        enabledness depends only on its pending effect and the state of
        the object that effect waits on (the target; the creation event
        for START; the joined thread's termination event for JOIN), and
        a step changes only the objects it touches.  So after a step
        only two kinds of thread are evaluated again: those the engine
        marked stale (``enabled is None``: the thread that stepped,
        waiters a notify rewrote, new children) and those whose pending
        effect waits on an object the step touched.
        """
        if self.failed:
            return ()
        enabled = self._enabled
        if enabled is None:
            touched = self._touched
            result = []
            for thread in self._order:
                effect = thread.pending
                if effect is None:
                    continue
                ok = thread.enabled
                if ok is None:
                    ok = thread.enabled = self._effect_enabled(thread, effect)
                elif touched:
                    waits_on = effect.target
                    if waits_on is None and effect.kind is EffectKind.JOIN:
                        waits_on = self.threads[effect.args[0].tid].done_event
                    if waits_on is not None and waits_on in touched:
                        ok = thread.enabled = self._effect_enabled(thread, effect)
                if ok:
                    result.append(thread.tid)
            touched.clear()
            enabled = self._enabled = tuple(result)
        return enabled

    def _effect_enabled(self, thread: ThreadState, effect: Effect) -> bool:
        kind = effect.kind
        if kind is EffectKind.START:
            return thread.created_event.is_set
        if kind is EffectKind.JOIN:
            handle = effect.args[0]
            return self.threads[handle.tid].done_event.is_set
        if kind.engine:
            return True
        target = effect.target
        if target is None:
            return True
        return target.is_enabled(effect, thread)

    def pending_footprint(self, tid: ThreadId) -> frozenset:
        """Names of the shared objects ``tid``'s next step will touch.

        Two pending steps with disjoint footprints are *independent*:
        they commute and neither enables or disables the other.  Exact
        only under the ``EVERY_ACCESS`` policy (a ``SYNC_ONLY`` big
        step also performs data accesses that are unknowable before
        executing it); the partial-order-reduction strategies check
        the policy before relying on this.
        """
        thread = self.threads[tid]
        effect = thread.pending
        if effect is None:
            return frozenset()
        kind = effect.kind
        if kind is EffectKind.START:
            return frozenset({thread.created_event.name})
        if kind is EffectKind.EXIT:
            return frozenset({thread.done_event.name})
        if kind is EffectKind.SPAWN:
            # The child's creation event is fresh: nothing else can
            # touch it before this step runs.
            return frozenset({f"$spawn.{tid}.{thread.spawn_counter}"})
        if kind is EffectKind.ALLOC:
            return frozenset({f"$alloc.{tid}.{thread.alloc_counter}"})
        if kind is EffectKind.JOIN:
            target = self.threads[effect.args[0].tid]
            return frozenset({target.done_event.name})
        if kind is EffectKind.YIELD:
            return frozenset({f"$yield.{tid}"})
        names = set()
        target = effect.target
        if target is not None:
            names.add(target.name)
            # A heap-field access conflicts with freeing the owner, and
            # an operation on a guarded sync object conflicts with
            # freeing its guard; include those owners in the footprint.
            owner = getattr(target, "owner", None)
            if owner is not None:
                names.add(owner.name)
            guard = getattr(target, "guard", None)
            if guard is not None:
                names.add(guard.name)
            fields = getattr(target, "fields", None)
            if fields:  # freeing/allocating touches every field
                names.update(field.name for field in fields.values())
        if kind is EffectKind.CV_WAIT:
            names.add(effect.args[0].name)
        return frozenset(names)

    def fingerprint(self) -> int:
        """Canonical 64-bit digest of the current program state.

        Shared-state digest plus each thread's (path, steps, input chain)
        digest, mod 2**64: equal happens-before relations give equal
        fingerprints.  Computed on demand and cached until the next step.
        """
        if self._fingerprint is None:
            total = self.world.fingerprint()
            for thread in self.threads.values():
                total += thread.digest()
            self._fingerprint = total & DIGEST_MASK
        return self._fingerprint

    # -- bug reporting -------------------------------------------------------

    def report_bug(
        self,
        kind: BugKind,
        message: str,
        thread: Optional[ThreadId] = None,
        details: Tuple[Tuple[str, Any], ...] = (),
        fatal: bool = True,
    ) -> BugReport:
        """Record a bug found in the current execution."""
        report = BugReport(
            kind=kind,
            message=message,
            thread=thread,
            schedule=tuple(self.schedule),
            preemptions=self.preemptions,
            step_index=len(self.step_records),
            details=details,
        )
        self.bugs.append(report)
        if fatal:
            self.failed = True
        return report

    def _note_races(self, thread: ThreadState, races: Sequence[Any]) -> None:
        for race in races:
            message = race.describe() if hasattr(race, "describe") else str(race)
            self.report_bug(
                BugKind.DATA_RACE,
                message,
                thread=thread.tid,
                fatal=self.config.races_are_fatal,
            )

    # -- the scheduler interface -----------------------------------------------

    def execute(self, tid: ThreadId) -> StepRecord:
        """Run thread ``tid`` for one step from the current state.

        Under ``SYNC_ONLY`` the step comprises the pending
        synchronization access plus every following data access up to
        (but excluding) the thread's next synchronization access.
        """
        if self.finished:
            raise SchedulingError("execution already finished")
        enabled = self.enabled_threads()
        if tid not in enabled:
            raise SchedulingError(
                f"thread {tid} is not enabled (enabled: {list(map(str, enabled))})"
            )
        thread = self.threads[tid]
        log = self._log
        if log is not None:
            self._befores = [(thread, _thread_state(thread))]
            goldilocks = self.goldilocks
            marks = (
                self.hb.mark(),
                0 if goldilocks is None else goldilocks.mark(),
                len(self.bugs),
                self.total_accesses,
                len(self.threads),
                len(self.world.objects),
            )

        last = self.last_tid
        preempting = last is not None and last != tid and last in enabled
        if preempting:
            self.preemptions += 1
        self.schedule.append(tid)

        accesses: List[Tuple[EffectKind, Optional[str]]] = []
        every_access = self._every_access
        budget = self.config.max_accesses_per_step
        while True:
            effect = thread.pending
            assert effect is not None
            self._apply_one(thread, effect, accesses)
            if self.failed or thread.pending is None:  # a bug, or EXIT
                break
            if every_access or not thread.pending.kind.data:  # a scheduling point
                break
            budget -= 1
            if budget <= 0:
                self.report_bug(
                    BugKind.LIVELOCK,
                    f"thread {tid} performed {self.config.max_accesses_per_step} "
                    "consecutive data accesses without reaching a "
                    "synchronization operation (data spin loops cannot be "
                    "broken by a context switch under the sync-only policy)",
                    thread=tid,
                )
                break

        thread._digest = None
        thread.enabled = None
        self._enabled = None
        self._fingerprint = None
        if log is not None:
            self._log_step(marks)
        self.world.mark_dirty(*self._touched)
        record = StepRecord(
            index=len(self.step_records),
            tid=tid,
            preempting=preempting,
            accesses=tuple(accesses),
            preemptions=self.preemptions,
        )
        self.step_records.append(record)
        self.last_tid = tid

        for monitor in self.monitors:
            monitor.on_step(self, record)

        if not self.failed and not self.enabled_threads():
            self.completed = True
            alive = [t for t in self.threads.values() if t.alive]
            if alive:
                self.deadlocked = True
                if self.config.deadlock_is_bug:
                    blocked = ", ".join(
                        f"{t.tid} waiting on {t.pending!r}" for t in alive
                    )
                    self.report_bug(
                        BugKind.DEADLOCK,
                        f"deadlock: no thread is enabled ({blocked})",
                    )
            for monitor in self.monitors:
                monitor.on_terminal(self)
        return record

    # -- rewind ------------------------------------------------------------

    def keep_rewind_log(self) -> None:
        """Log every step from here on so that :meth:`rewind` can undo it.

        Call before the first step.  The log costs a save of the
        changed threads and touched objects on every step, so only an
        execution that will be rewound keeps one.  Nothing is logged
        when this execution cannot be rewound: monitors keep state of
        their own, an in-vivo program's threads are OS threads, and some
        object kinds have no ``restore``.
        """
        assert not self.schedule, "the rewind log must start before the first step"
        if self.program.restorable and not self.monitors:
            self._log = []
            self._saved = {
                obj.name: obj.save() for obj in self.world.objects if obj.restorable
            }

    def _log_step(self, marks: Tuple[int, ...]) -> None:
        """Append the rewind-log entry of the step just executed."""
        saved = self._saved
        for obj in self.world.objects[marks[-1]:]:  # created by this step
            if obj.restorable:
                saved[obj.name] = obj.save()
        objects: List[Tuple[SharedObject, Any]] = []
        previous = None
        for obj in self._touched:
            # A repeat is harmless (it undoes to the state it saved a
            # moment ago, then to the earlier one); skip the common one.
            if obj is previous:
                continue
            previous = obj
            if not obj.restorable:
                self._log = None
                return
            name = obj.name
            objects.append((obj, saved[name]))
            saved[name] = obj.save()
        assert self._log is not None
        self._log.append((self._befores, objects) + marks)

    def rewind(self, length: int) -> None:
        """Put this execution back in its state after ``length`` steps.

        The state is *rewound*, not replayed: no engine step runs.  The
        later steps are undone from the log, latest first: each object
        they touched and each thread they changed takes back its state
        from before them, and the objects and threads they created are
        dropped.  A body's local state lives in its generator, which
        cannot run backwards, so a thread that was sent values after
        ``length`` steps gets a fresh generator, fast-forwarded by
        sending it the values it had been sent by then.  This relies on
        the invariant fingerprints already rest on: a thread's local
        state is a function of the values delivered to it.  The race
        detectors roll back their journals.
        """
        log = self._log
        if log is None or not 0 < length < len(log):
            raise ValueError(f"cannot rewind to step {length} of this execution")
        entry = log[length]
        # The earliest state each thread and object had in the steps undone.
        thread_states: Dict[ThreadState, Tuple[Any, ...]] = {}
        object_states: Dict[SharedObject, Any] = {}
        for step in reversed(log[length:]):
            for thread, state in reversed(step[_THREADS]):
                thread_states[thread] = state
            for obj, state in reversed(step[_OBJECTS]):
                object_states[obj] = state
        del log[length:]

        saved = self._saved
        for obj in self.world.truncate(entry[_OBJECT_COUNT]):
            saved.pop(obj.name, None)
        undone = []
        for obj, state in object_states.items():
            if obj.name in saved:  # not dropped
                obj.restore(state)
                saved[obj.name] = state
                undone.append(obj)
        self.world.mark_dirty(*undone)

        threads = self.threads
        for tid in list(threads)[entry[_THREAD_COUNT]:]:
            del threads[tid]
        self._order = [thread for thread in self._order if thread.tid in threads]
        for thread, state in thread_states.items():
            if thread.tid not in threads:
                continue
            (thread.status, thread.pending, thread.steps, thread.blocking_steps,
             thread._chain, thread.spawn_counter, thread.alloc_counter, sent) = state
            thread._digest = None
            inputs = thread.inputs
            if len(inputs) > sent:
                del inputs[sent:]
                thread.generator = None
                if inputs:
                    self._start_body(thread)
                    send = thread.generator.send
                    try:
                        for value in inputs:
                            send(value)
                    except StopIteration:  # the body had returned
                        pass
        for thread in self._order:
            thread.enabled = None

        self.hb.rollback(entry[_HB])
        if self.goldilocks is not None:
            self.goldilocks.rollback(entry[_GL])
        del self.schedule[length:]
        del self.step_records[length:]
        del self.bugs[entry[_BUGS]:]
        self.preemptions = self.step_records[-1].preemptions
        self.last_tid = self.schedule[-1]
        self.total_accesses = entry[_ACCESSES]
        self.failed = self.completed = self.deadlocked = False
        self._enabled = self._fingerprint = None
        self._touched.clear()

    # -- effect interpretation -----------------------------------------------

    def _apply_one(
        self,
        thread: ThreadState,
        effect: Effect,
        accesses: List[Tuple[EffectKind, Optional[str]]],
    ) -> None:
        target = effect.target
        if target is not None:
            self._touched.append(target)
        try:
            guard: Optional[HeapRef] = getattr(target, "guard", None)
            if guard is not None:
                guard.check_alive(f"{effect.kind} on {target.name}")
            value, advance = self._dispatch(thread, effect)
        except BugSignal as signal:
            self._fail(thread, signal.kind, signal.message, signal.details)
            return

        thread.steps += 1
        self.total_accesses += 1
        kind = effect.kind
        if kind.blocks or kind is EffectKind.EXIT:
            thread.blocking_steps += 1
        name = target.name if isinstance(target, SharedObject) else None
        accesses.append((kind, name))

        if advance:
            self._advance(thread, value)

    def _dispatch(self, thread: ThreadState, effect: Effect) -> Tuple[Any, bool]:
        """Execute one effect; return (value for generator, advance?)."""
        kind = effect.kind
        tid = thread.tid

        if not kind.engine:
            # Object-interpreted effects, the common case.
            target = effect.target
            if target is None:
                raise ProgramDefinitionError(f"effect {effect!r} has no target")
            value = target.apply(effect, thread)
            if kind.data:
                self._check_data_access(thread, target, target.is_write(effect))
                return value, True
            self._sync_hb(thread, effect, [target])
            if kind is EffectKind.FREE and self.config.free_conflicts:
                # Extension: deallocation conflicts with every concurrent
                # access to the object's storage, so model the free as a
                # write to each field and let the race detectors flag an
                # unordered free even when the access executed first.
                assert isinstance(target, HeapRef)
                for fld in target.fields.values():
                    self._check_data_access(thread, fld, True)
            return value, True

        if kind is EffectKind.START:
            self._sync_hb(thread, effect, [thread.created_event])
            thread.status = ThreadStatus.ACTIVE
            self._start_body(thread)
            return None, True

        if kind is EffectKind.EXIT:
            self._sync_hb(thread, effect, [thread.done_event])
            thread.done_event.is_set = True
            thread.status = ThreadStatus.FINISHED
            thread.pending = None
            return None, False

        if kind is EffectKind.SPAWN:
            body, args, name = effect.args
            index = thread.spawn_counter
            thread.spawn_counter += 1
            child_tid = tid.child(index, name or f"{tid.label}.{index}")
            if child_tid in self.threads:
                raise ProgramDefinitionError(f"duplicate thread id {child_tid}")
            child = self._add_thread(child_tid, body, tuple(args), created=False)
            child.created_event.is_set = True
            self._sync_hb(thread, effect, [child.created_event])
            return ThreadHandle(child.tid), True

        if kind is EffectKind.JOIN:
            handle = effect.args[0]
            if not isinstance(handle, ThreadHandle):
                raise ProgramDefinitionError(f"join expects a ThreadHandle, got {handle!r}")
            done = self.threads[handle.tid].done_event
            self._sync_hb(thread, effect, [done])
            return None, True

        if kind is EffectKind.YIELD:
            self.hb.local_step(tid)
            return None, True

        if kind is EffectKind.ALLOC:
            name, fields = effect.args
            ref = HeapRef(self.world, f"{name}#{tid}:{thread.alloc_counter}", dict(fields))
            thread.alloc_counter += 1
            self._sync_hb(thread, effect, [ref])
            return ref, True

        if kind is EffectKind.CV_WAIT:
            cv = effect.target
            (mutex,) = effect.args
            if not isinstance(mutex, Mutex) or mutex.holder != tid:
                raise BugSignal(
                    BugKind.LOCK_ERROR,
                    f"condition wait on {cv.name} without holding "
                    f"{getattr(mutex, 'name', mutex)!r}",
                )
            mutex.holder = None
            cv.waiters.append((tid, mutex))
            self._sync_hb(thread, effect, [cv, mutex])
            # Park: the sentinel WAIT is never enabled; a notify
            # rewrites it to an ACQUIRE of the mutex.
            thread.pending = Effect(EffectKind.WAIT, cv)
            return None, False

        # CV_NOTIFY or CV_BROADCAST, the last engine kind.
        cv = effect.target
        assert isinstance(cv, CondVar)
        count = 1 if kind is EffectKind.CV_NOTIFY else len(cv.waiters)
        for _ in range(min(count, len(cv.waiters))):
            waiter_tid, mutex = cv.waiters.pop(0)
            waiter = self.threads[waiter_tid]
            if self._log is not None:
                self._befores.append((waiter, _thread_state(waiter)))
            waiter.pending = Effect(EffectKind.ACQUIRE, mutex)
            waiter.enabled = None
        self._sync_hb(thread, effect, [cv])
        return None, True

    def _start_body(self, thread: ThreadState) -> None:
        """Create ``thread``'s generator."""
        generator = thread.body(*thread.args)
        if not hasattr(generator, "send"):
            raise ProgramDefinitionError(
                f"thread body {thread.body!r} of {thread.tid} is not a generator "
                "function; thread bodies must yield effects"
            )
        thread.generator = generator

    def _check_data_access(
        self, thread: ThreadState, obj: SharedObject, is_write: bool
    ) -> None:
        """Run the race detectors on one data access to ``obj``."""
        obs = self.obs
        t0 = obs.hook_race.start() if obs is not None else 0.0
        found = 0
        _, races = self.hb.data_access(thread.tid, obj, is_write)
        if self._use_vc_races and races:
            self._note_races(thread, races)
            found += len(races)
        if self.goldilocks is not None:
            race = self.goldilocks.on_data(thread.tid, obj, is_write)
            if race:
                self._note_races(thread, [race])
                found += 1
        if obs is not None:
            obs.race_checked(found, t0)

    def _sync_hb(
        self, thread: ThreadState, effect: Effect, objects: List[SharedObject]
    ) -> None:
        self.hb.sync_access(thread.tid, objects)
        self._touched += objects
        if self.goldilocks is not None:
            for obj in objects:
                self.goldilocks.on_sync(thread.tid, obj, effect.kind)

    def _fail(self, thread: ThreadState, kind: BugKind, message: str,
              details: Tuple[Tuple[str, Any], ...] = ()) -> None:
        """Report a bug raised by ``thread``'s step and retire the thread."""
        self.report_bug(kind, message, thread=thread.tid, details=details)
        thread.status = ThreadStatus.FAILED
        thread.pending = None

    def _advance(self, thread: ThreadState, value: Any) -> None:
        """Send ``value`` into the generator and capture its next effect."""
        thread.record_input(value)
        assert thread.generator is not None
        try:
            effect = thread.generator.send(value)
        except StopIteration:
            thread.pending = Effect(EffectKind.EXIT)
            return
        except ProgramAssertionError as exc:
            self._fail(thread, BugKind.ASSERTION, exc.message)
            return
        except BugSignal as signal:
            self._fail(thread, signal.kind, signal.message, signal.details)
            return
        except Exception as exc:  # noqa: BLE001 - program-under-test fault
            self._fail(thread, BugKind.UNCAUGHT_EXCEPTION, f"{type(exc).__name__}: {exc}")
            return
        if not isinstance(effect, Effect):
            raise ProgramDefinitionError(
                f"thread {thread.tid} yielded {effect!r}; thread bodies must "
                "yield Effect objects (did you forget `yield from` on a "
                "composite operation?)"
            )
        thread.pending = effect

    # -- conveniences -----------------------------------------------------------

    @classmethod
    def replay(
        cls,
        program: Program,
        schedule: Sequence[ThreadId],
        config: Optional[ExecutionConfig] = None,
    ) -> "Execution":
        """Re-execute ``program`` under a recorded schedule."""
        ex = cls(program, config)
        for tid in schedule:
            ex.execute(tid)
        return ex

    def run_round_robin(self) -> "Execution":
        """Drive the execution to completion without any preemption.

        From any state a terminating program can be driven to
        completion by scheduling each thread until it yields the
        processor -- the paper's observation that even a bound of zero
        explores complete executions.
        """
        while not self.finished:
            enabled = self.enabled_threads()
            if self.last_tid is not None and self.last_tid in enabled:
                self.execute(self.last_tid)
            else:
                self.execute(enabled[0])
        return self

    def describe_trace(self) -> str:
        """Human-readable rendering of the executed steps."""
        lines = []
        for record in self.step_records:
            marker = "*" if record.preempting else " "
            ops = ", ".join(
                f"{kind}({name})" if name else str(kind)
                for kind, name in record.accesses
            )
            lines.append(f"{marker}[{record.index:3}] {record.tid}: {ops}")
        return "\n".join(lines)
