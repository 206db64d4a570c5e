"""Engine semantics: scheduling, enabledness, preemption accounting."""

from __future__ import annotations

import pytest

from repro import (
    BugKind,
    Execution,
    ExecutionConfig,
    Program,
    SchedulingPolicy,
    check,
)
from repro.core.thread import ThreadId
from repro.errors import SchedulingError


def two_step_program():
    def setup(w):
        a = w.atomic("a", 0)
        b = w.atomic("b", 0)

        def left():
            yield a.add(1)
            yield a.add(1)

        def right():
            yield b.add(1)

        return {"left": left, "right": right}

    return Program("two-step", setup)


class TestBasicScheduling:
    def test_initial_threads_enabled(self):
        ex = Execution(two_step_program())
        assert [str(t) for t in ex.enabled_threads()] == ["left", "right"]

    def test_round_robin_completes(self):
        ex = Execution(two_step_program()).run_round_robin()
        assert ex.completed and not ex.failed
        assert ex.world.find("a").value == 2
        assert ex.world.find("b").value == 1

    def test_execute_disabled_thread_raises(self):
        def setup(w):
            lock = w.mutex("lock")

            def holder():
                yield lock.acquire()
                yield lock.acquire()  # self-deadlock; never released

            def waiter():
                yield lock.acquire()
                yield lock.release()

            return {"holder": holder, "waiter": waiter}

        ex = Execution(Program("p", setup), ExecutionConfig(deadlock_is_bug=False))
        holder, waiter = ex.enabled_threads()
        ex.execute(holder)  # START step
        ex.execute(holder)  # first acquire; second acquire now pending
        assert holder not in ex.enabled_threads()  # self-deadlocked
        ex.execute(waiter)  # START step; its acquire is now pending
        # Both threads blocked on the held mutex: terminal deadlock.
        assert ex.enabled_threads() == ()
        with pytest.raises(SchedulingError):
            ex.execute(waiter)

    def test_execute_after_completion_raises(self):
        ex = Execution(two_step_program()).run_round_robin()
        with pytest.raises(SchedulingError):
            ex.execute(ThreadId((0,), "left"))

    def test_schedule_records_choices(self):
        ex = Execution(two_step_program()).run_round_robin()
        assert len(ex.schedule) == len(ex.step_records)
        assert all(isinstance(t, ThreadId) for t in ex.schedule)


class TestPreemptionCounting:
    """NP(alpha) per Appendix A.1."""

    def test_round_robin_has_zero_preemptions(self):
        ex = Execution(two_step_program()).run_round_robin()
        assert ex.preemptions == 0

    def test_switch_from_enabled_thread_is_preemption(self):
        ex = Execution(two_step_program())
        left, right = ex.enabled_threads()
        ex.execute(left)
        assert ex.preemptions == 0
        ex.execute(right)  # left still enabled: preemption
        assert ex.preemptions == 1
        ex.execute(left)  # right still enabled: preemption
        assert ex.preemptions == 2

    def test_switch_from_blocked_thread_is_free(self):
        def setup(w):
            ev = w.event("ev")

            def waiter():
                yield ev.wait()

            def setter():
                yield ev.set()

            return {"waiter": waiter, "setter": setter}

        ex = Execution(Program("p", setup))
        waiter, setter = ThreadId((0,), "waiter"), ThreadId((1,), "setter")
        ex.execute(waiter)  # START; then blocks on the unset event
        assert waiter not in ex.enabled_threads()
        ex.execute(setter)  # switch from blocked thread: nonpreempting
        assert ex.preemptions == 0

    def test_continuing_same_thread_never_preempts(self):
        ex = Execution(two_step_program())
        left = ex.enabled_threads()[0]
        while left in ex.enabled_threads():
            ex.execute(left)
        assert ex.preemptions == 0

    def test_step_records_mark_preempting_steps(self):
        ex = Execution(two_step_program())
        left, right = ex.enabled_threads()
        ex.execute(left)
        ex.execute(right)
        assert [r.preempting for r in ex.step_records] == [False, True]


class TestSchedulingPolicies:
    def make_data_program(self):
        def setup(w):
            lock = w.mutex("lock")
            data = w.var("data", 0)

            def worker():
                yield lock.acquire()
                v = yield data.read()
                yield data.write(v + 1)
                yield lock.release()

            return {"w1": worker, "w2": worker}

        return Program("data", setup)

    def test_sync_only_glues_data_accesses(self):
        ex = Execution(self.make_data_program()).run_round_robin()
        # Each acquire step carries the two data accesses with it.
        acquire_steps = [
            r
            for r in ex.step_records
            if any(str(kind) == "acquire" for kind, _ in r.accesses)
        ]
        assert acquire_steps
        for record in acquire_steps:
            kinds = [str(kind) for kind, _ in record.accesses]
            assert kinds == ["acquire", "read", "write"]

    def test_every_access_isolates_each_access(self):
        config = ExecutionConfig(policy=SchedulingPolicy.EVERY_ACCESS)
        ex = Execution(self.make_data_program(), config).run_round_robin()
        assert all(len(r.accesses) == 1 for r in ex.step_records)

    def test_policies_reach_same_final_value(self):
        final = []
        for policy in SchedulingPolicy:
            ex = Execution(
                self.make_data_program(), ExecutionConfig(policy=policy)
            ).run_round_robin()
            final.append(ex.world.find("data").value)
        assert final[0] == final[1] == 2


class TestBugDetection:
    def test_assertion_failure_reported(self):
        def setup(w):
            flag = w.atomic("flag", 0)

            def t():
                yield flag.write(1)
                check(False, "boom")

            return {"t": t}

        ex = Execution(Program("p", setup)).run_round_robin()
        assert ex.failed
        assert ex.bugs[0].kind is BugKind.ASSERTION
        assert ex.bugs[0].message == "boom"
        assert ex.bugs[0].thread == ThreadId((0,), "t")

    def test_uncaught_exception_reported(self):
        def setup(w):
            flag = w.atomic("flag", 0)

            def t():
                yield flag.write(1)
                raise ValueError("oops")

            return {"t": t}

        ex = Execution(Program("p", setup)).run_round_robin()
        assert ex.bugs[0].kind is BugKind.UNCAUGHT_EXCEPTION
        assert "oops" in ex.bugs[0].message

    def test_deadlock_reported(self):
        def setup(w):
            ev = w.event("never")

            def t():
                yield ev.wait()

            return {"t": t}

        ex = Execution(Program("p", setup)).run_round_robin()
        assert ex.deadlocked
        assert ex.bugs[0].kind is BugKind.DEADLOCK

    def test_deadlock_can_be_tolerated(self):
        def setup(w):
            ev = w.event("never")

            def t():
                yield ev.wait()

            return {"t": t}

        ex = Execution(
            Program("p", setup), ExecutionConfig(deadlock_is_bug=False)
        ).run_round_robin()
        assert ex.deadlocked and not ex.failed and ex.completed

    def test_bug_report_carries_replayable_schedule(self):
        def setup(w):
            a = w.atomic("a", 0)

            def t1():
                v = yield a.read()
                yield a.write(v + 1)

            def t2():
                v = yield a.read()
                yield a.write(v + 1)

            def main():
                yield a.write(0)

            return {"t1": t1, "t2": t2, "main": main}

        # Manually produce the lost-update interleaving.
        program = Program("p", setup)
        ex = Execution(program)
        t1, t2, _ = ex.enabled_threads()
        ex.execute(t1)  # START + read
        ex.execute(t2)  # preempt: READ same value
        assert ex.preemptions == 1

    def test_livelock_guard_fires_on_data_spin(self):
        def setup(w):
            data = w.var("flag", 0)

            def spinner():
                while True:
                    v = yield data.read()
                    if v:
                        break

            return {"spinner": spinner}

        config = ExecutionConfig(max_accesses_per_step=100)
        ex = Execution(Program("p", setup), config)
        ex.execute(ex.enabled_threads()[0])
        assert ex.failed
        assert ex.bugs[0].kind is BugKind.LIVELOCK


class TestReplayDeterminism:
    def test_replay_reproduces_fingerprints(self):
        program = two_step_program()
        ex = Execution(program)
        import random

        rng = random.Random(7)
        while not ex.finished:
            enabled = ex.enabled_threads()
            ex.execute(enabled[rng.randrange(len(enabled))])
        replay = Execution.replay(program, ex.schedule)
        assert replay.fingerprint() == ex.fingerprint()
        assert replay.preemptions == ex.preemptions
        # Step by step: two fresh executions of the schedule agree on
        # the fingerprint after every step.
        first, second = Execution(program), Execution(program)
        for tid in ex.schedule:
            first.execute(tid)
            second.execute(tid)
            assert first.fingerprint() == second.fingerprint()

    def test_equivalent_interleavings_share_final_fingerprint(self):
        # Two threads touching disjoint variables commute.
        def setup(w):
            a = w.atomic("a", 0)
            b = w.atomic("b", 0)

            def ta():
                yield a.add(1)

            def tb():
                yield b.add(1)

            return {"ta": ta, "tb": tb}

        program = Program("p", setup)
        ex1 = Execution(program)
        ta, tb = ex1.enabled_threads()
        for tid in (ta, ta, tb, tb):  # run ta fully, then tb
            if tid in ex1.enabled_threads():
                ex1.execute(tid)
        while not ex1.finished:
            ex1.execute(ex1.enabled_threads()[0])

        ex2 = Execution(program)
        for tid in (tb, tb, ta, ta):
            if tid in ex2.enabled_threads():
                ex2.execute(tid)
        while not ex2.finished:
            ex2.execute(ex2.enabled_threads()[0])
        assert ex1.fingerprint() == ex2.fingerprint()


class TestSpawnJoin:
    def test_spawned_threads_get_hierarchical_ids(self):
        from repro import join, spawn

        seen = {}

        def setup(w):
            token = w.atomic("token", 0)

            def child():
                yield token.add(1)

            def main():
                h1 = yield spawn(child, name="c1")
                h2 = yield spawn(child, name="c2")
                seen["ids"] = (h1.tid, h2.tid)
                yield join(h1)
                yield join(h2)

            return {"main": main}

        ex = Execution(Program("p", setup)).run_round_robin()
        assert ex.completed and not ex.failed
        assert seen["ids"][0].path == (0, 0)
        assert seen["ids"][1].path == (0, 1)
        assert ex.world.find("token").value == 2

    def test_join_blocks_until_child_finishes(self):
        from repro import join, spawn

        def setup(w):
            gate = w.event("gate")
            order = w.var("order", ())

            def child():
                yield gate.wait()
                trace = yield order.read()
                yield order.write(trace + ("child",))

            def main():
                handle = yield spawn(child)
                yield gate.set()
                yield join(handle)
                trace = yield order.read()
                yield order.write(trace + ("main",))

            return {"main": main}

        ex = Execution(Program("p", setup)).run_round_robin()
        assert ex.world.find("order").value == ("child", "main")
