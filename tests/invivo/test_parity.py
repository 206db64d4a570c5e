"""Adapter/DSL parity: every invivo adapter operation reaches the
engine as the same :class:`EffectKind` sequence the equivalent DSL
program yields.

The kitchen-sink pair below builds the *same* program twice -- once
with real callables over invivo adapters, once as DSL generators over
the core shared objects, using identical object names and thread
labels -- and asserts the two round-robin executions record identical
``(thread, kind, target)`` access sequences step for step.  This is
what makes every downstream layer (race detection, ICB bounds,
fingerprints, witness traces) mean the same thing for in-vivo code as
for the DSL.

The cross-validation half pins how ``repro.analysis`` composes: the
hidden-state lint watches the same executions, and a program whose
state all lives in adapters gives it nothing to report.
"""

from __future__ import annotations

from repro import ChessChecker, Execution, Program
from repro.analysis import lint_program
from repro.core.sync import CondVar
from repro.errors import BugKind
from repro.invivo import (
    Atomic,
    BoundedSemaphore,
    Condition,
    Event,
    InvivoProgram,
    Lock,
    RLock,
    Semaphore,
    Shared,
)


def access_trace(program):
    """The flattened (thread, kind, target) access sequence of the
    preemption-free execution."""
    execution = Execution(program).run_round_robin()
    assert not execution.failed, execution.error
    return [
        (str(record.tid), kind.value, name)
        for record in execution.step_records
        for kind, name in record.accesses
    ]


def make_invivo_kitchen_sink():
    """One thread exercising every adapter operation, plus a condition
    waiter, written as real callables."""

    def setup():
        lock = Lock(name="m")
        rlock = RLock(name="r")
        event = Event(name="e")
        sem = Semaphore(2, name="s")
        cv = Condition(Lock(name="cv.m"), name="cv")
        data = Shared(0, name="d")
        counter = Atomic(0, name="a")

        def worker():
            lock.acquire()
            lock.release()
            assert lock.acquire(blocking=False)
            lock.locked()
            lock.release()
            with rlock:
                rlock.acquire()
                rlock.release()
            assert rlock.acquire(blocking=False)
            rlock.release()
            event.is_set()
            event.set()
            event.wait()
            event.clear()
            sem.acquire()
            assert sem.acquire(blocking=False)
            sem.release(2)
            data.set(data.get() + 1)
            counter.set(counter.get() + 1)
            counter.add(2)
            counter.cas(3, 4)
            counter.exchange(0)
            with cv:
                cv.notify()
                cv.notify_all()

        def waiter():
            with cv:
                cv.wait()

        return {"waiter": waiter, "worker": worker}

    return InvivoProgram("kitchen-sink", setup)


def make_dsl_kitchen_sink():
    """The same program as DSL generators over the core objects."""

    def setup(w):
        lock = w.mutex("m")
        rlock = w.critical_section("r")
        event = w.event("e", initial=False)
        sem = w.semaphore("s", initial=2)
        cvm = w.mutex("cv.m")
        cv = CondVar(w, "cv")
        data = w.var("d", 0)
        counter = w.atomic("a", 0)

        def worker():
            yield lock.acquire()
            yield lock.release()
            assert (yield lock.try_acquire())
            yield lock.poll()
            yield lock.release()
            yield rlock.enter()
            yield rlock.enter()
            yield rlock.leave()
            yield rlock.leave()
            assert (yield rlock.try_enter())
            yield rlock.leave()
            yield event.poll()
            yield event.set()
            yield event.wait()
            yield event.reset()
            yield sem.acquire()
            assert (yield sem.try_acquire())
            yield sem.release(2)
            v = yield data.read()
            yield data.write(v + 1)
            c = yield counter.read()
            yield counter.write(c + 1)
            yield counter.add(2)
            yield counter.cas(3, 4)
            yield counter.exchange(0)
            yield cvm.acquire()
            yield cv.notify()
            yield cv.broadcast()
            yield cvm.release()

        def waiter():
            yield cvm.acquire()
            yield cv.wait(cvm)
            yield cvm.release()

        return {"waiter": waiter, "worker": worker}

    return Program("kitchen-sink", setup)


class TestKitchenSinkParity:
    def test_every_operation_matches_the_dsl(self):
        invivo_trace = access_trace(make_invivo_kitchen_sink())
        dsl_trace = access_trace(make_dsl_kitchen_sink())
        assert invivo_trace == dsl_trace

    def test_the_trace_is_nontrivial(self):
        # Guard against the parity assertion passing vacuously: the
        # run must actually exercise the whole adapter vocabulary.
        kinds = {kind for _, kind, _ in access_trace(make_invivo_kitchen_sink())}
        assert kinds >= {
            "acquire",
            "try-acquire",
            "release",
            "atomic-read",
            "wait",
            "signal",
            "reset",
            "sem-acquire",
            "sem-release",
            "read",
            "write",
            "atomic-write",
            "atomic-add",
            "cas",
            "exchange",
            "cv-wait",
            "cv-notify",
            "cv-broadcast",
        }

    def test_parity_is_deterministic(self):
        # Two fresh instantiations of the invivo program record the
        # same sequence: the run is repeatable, not just DSL-shaped.
        assert access_trace(make_invivo_kitchen_sink()) == access_trace(
            make_invivo_kitchen_sink()
        )


class TestBugParity:
    """Misuse is reported as the same bug kind in both worlds."""

    def test_nonowner_release_is_a_lock_error(self):
        def setup():
            lock = Lock(name="m")

            def rogue():
                lock.release()

            return {"rogue": rogue}

        bug = ChessChecker(InvivoProgram("rogue-release", setup)).find_bug(
            max_bound=0
        )
        assert bug is not None and bug.kind is BugKind.LOCK_ERROR

    def test_bounded_semaphore_overflow_is_a_lock_error(self):
        def invivo_setup():
            sem = BoundedSemaphore(1, name="s")

            def over():
                sem.release()

            return {"over": over}

        def dsl_setup(w):
            sem = w.semaphore("s", initial=1, maximum=1)

            def over():
                yield sem.release()

            return {"over": over}

        invivo_bug = ChessChecker(
            InvivoProgram("sem-overflow", invivo_setup)
        ).find_bug(max_bound=0)
        dsl_bug = ChessChecker(Program("sem-overflow", dsl_setup)).find_bug(
            max_bound=0
        )
        assert invivo_bug is not None and dsl_bug is not None
        assert invivo_bug.kind is dsl_bug.kind is BugKind.LOCK_ERROR


class TestAnalysisCrossValidation:
    """How the hidden-state lint composes with in-vivo programs."""

    def test_invivo_twin_lints_clean(self):
        # Every operation of the kitchen sink goes through an adapter,
        # so no step changes plain state the checker cannot see.
        assert lint_program(make_invivo_kitchen_sink()) == ()
