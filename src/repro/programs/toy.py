"""Small classic concurrency programs for tests and examples.

Each factory returns a :class:`~repro.core.program.Program`.  The
defects (where present) are documented with the minimum number of
preemptions required to expose them, which the test suite verifies
against both ICB and brute-force enumeration.
"""

from __future__ import annotations

from ..core.effects import join, sched_yield, spawn
from ..core.program import Program, check
from ..core.world import World


def racy_counter(n_threads: int = 2, increments: int = 1) -> Program:
    """Lost-update race on an unsynchronized counter.

    Each worker performs ``increments`` read-modify-write updates
    without a lock.  The race detector flags the unordered accesses
    (minimum 0 preemptions once one worker's write is unordered with
    another's read, which happens in the round-robin execution
    already).
    """

    def setup(w: World):
        counter = w.var("counter", 0)

        def worker():
            for _ in range(increments):
                value = yield counter.read()
                yield counter.write(value + 1)

        return {f"w{i}": worker for i in range(n_threads)}

    return Program(f"racy-counter-{n_threads}x{increments}", setup)


def atomic_counter_assert(n_threads: int = 2, increments: int = 1) -> Program:
    """Lost update on an *atomic* variable used non-atomically.

    Workers do ``v = read(); write(v + 1)`` on an atomic variable: no
    data race is reported (every access is a sync access), but the
    final count can be lost.  A main thread joins the workers and
    asserts the total; exposing the violation needs exactly one
    preemption between a worker's read and write.
    """

    def setup(w: World):
        counter = w.atomic("counter", 0)

        def worker():
            for _ in range(increments):
                value = yield counter.read()
                yield counter.write(value + 1)

        def main():
            handles = []
            for i in range(n_threads):
                handle = yield spawn(worker, name=f"w{i}")
                handles.append(handle)
            for handle in handles:
                yield join(handle)
            total = yield counter.read()
            check(
                total == n_threads * increments,
                f"lost update: expected {n_threads * increments}, got {total}",
            )

        return {"main": main}

    return Program(f"atomic-counter-{n_threads}x{increments}", setup)


def locked_counter(n_threads: int = 2, increments: int = 1) -> Program:
    """The correct version: updates under a mutex, asserted at the end."""

    def setup(w: World):
        counter = w.var("counter", 0)
        lock = w.mutex("lock")

        def worker():
            for _ in range(increments):
                yield lock.acquire()
                value = yield counter.read()
                yield counter.write(value + 1)
                yield lock.release()

        def main():
            handles = []
            for i in range(n_threads):
                handle = yield spawn(worker, name=f"w{i}")
                handles.append(handle)
            for handle in handles:
                yield join(handle)
            yield lock.acquire()
            total = yield counter.read()
            yield lock.release()
            check(total == n_threads * increments, "count must be exact")

        return {"main": main}

    return Program(f"locked-counter-{n_threads}x{increments}", setup)


def dekker(broken: bool = False) -> Program:
    """Dekker-style mutual exclusion for two threads (bounded retries).

    Flags and turn are atomic variables; the critical section is
    guarded by an occupancy counter whose value asserts mutual
    exclusion.  All busy-waits are bounded (a thread that cannot enter
    gives up), keeping the state space finite while preserving safety:
    a thread only enters after observing the other's flag clear.

    With ``broken=True`` a thread *impatiently* enters the critical
    section once its retries are exhausted, even while contended --
    the kind of timeout-justified shortcut that breaks under exactly
    the interleavings ICB surfaces first.
    """

    def setup(w: World):
        flags = [w.atomic("flag0", 0), w.atomic("flag1", 0)]
        turn = w.atomic("turn", 0)
        in_cs = w.atomic("in_cs", 0)

        def critical_section(me: int, other: int):
            occupants = yield in_cs.add(1)
            check(occupants == 1, "mutual exclusion violated")
            yield in_cs.add(-1)
            yield turn.write(other)
            yield flags[me].write(0)

        def worker(me: int):
            other = 1 - me
            yield flags[me].write(1)
            entered = False
            for _ in range(3):
                contended = yield flags[other].read()
                if not contended:
                    entered = True
                    break
                whose = yield turn.read()
                if whose != me:
                    # Back off and wait (boundedly) for our turn.
                    yield flags[me].write(0)
                    got_turn = False
                    for _ in range(4):
                        whose = yield turn.read()
                        if whose == me:
                            got_turn = True
                            break
                    yield flags[me].write(1)
                    if not got_turn:
                        break
            if entered or broken:
                yield from critical_section(me, other)
            else:
                yield flags[me].write(0)

        return [("t0", worker, (0,)), ("t1", worker, (1,))]

    name = "dekker-broken" if broken else "dekker"
    return Program(name, setup)


def peterson(broken: bool = False) -> Program:
    """Peterson's mutual-exclusion algorithm for two threads.

    Busy-waits are bounded: a thread whose entry condition never turns
    true gives up instead of spinning forever, preserving safety while
    keeping the state space finite.  With ``broken=True`` the victim
    handoff write is skipped, the classic transcription bug that lets
    both threads enter the critical section.
    """

    def setup(w: World):
        flags = [w.atomic("flag0", 0), w.atomic("flag1", 0)]
        victim = w.atomic("victim", 0)
        in_cs = w.atomic("in_cs", 0)

        def worker(me: int):
            other = 1 - me
            yield flags[me].write(1)
            if not broken:
                yield victim.write(me)
            entered = False
            for _ in range(6):
                contended = yield flags[other].read()
                if not contended:
                    entered = True
                    break
                blamed = yield victim.read()
                if blamed != me:
                    entered = True
                    break
            if entered:
                occupants = yield in_cs.add(1)
                check(occupants == 1, "mutual exclusion violated")
                yield in_cs.add(-1)
            yield flags[me].write(0)

        return [("t0", worker, (0,)), ("t1", worker, (1,))]

    name = "peterson-broken" if broken else "peterson"
    return Program(name, setup)


def lock_order_deadlock() -> Program:
    """Classic ABBA deadlock: two locks taken in opposite orders.

    Requires exactly one preemption (between the first thread's two
    acquires).
    """

    def setup(w: World):
        lock_a = w.mutex("A")
        lock_b = w.mutex("B")
        shared = w.var("shared", 0)

        def forward():
            yield lock_a.acquire()
            yield lock_b.acquire()
            value = yield shared.read()
            yield shared.write(value + 1)
            yield lock_b.release()
            yield lock_a.release()

        def backward():
            yield lock_b.acquire()
            yield lock_a.acquire()
            value = yield shared.read()
            yield shared.write(value - 1)
            yield lock_a.release()
            yield lock_b.release()

        return {"fwd": forward, "bwd": backward}

    return Program("lock-order-deadlock", setup)


def producer_consumer(buffer_size: int = 2, items: int = 3) -> Program:
    """Bounded buffer with semaphores (correct).

    One producer, one consumer, slots/items counting semaphores, and a
    final-sum assertion by the consumer.
    """

    def setup(w: World):
        buffer = w.array("buf", [0] * buffer_size)
        slots = w.semaphore("slots", initial=buffer_size)
        filled = w.semaphore("filled", initial=0)

        def producer():
            for i in range(items):
                yield slots.acquire()
                yield buffer[i % buffer_size].write(i + 1)
                yield filled.release()

        def consumer():
            total = 0
            for i in range(items):
                yield filled.acquire()
                value = yield buffer[i % buffer_size].read()
                total += value
                yield slots.release()
            check(total == items * (items + 1) // 2, "all items consumed once")

        return {"producer": producer, "consumer": consumer}

    return Program(f"prodcons-{buffer_size}x{items}", setup)


def event_handshake(rounds: int = 2) -> Program:
    """Two threads ping-ponging through auto-reset events (correct)."""

    def setup(w: World):
        ping = w.event("ping", auto_reset=True)
        pong = w.event("pong", auto_reset=True)
        log = w.var("log", ())

        def left():
            for i in range(rounds):
                trace = yield log.read()
                yield log.write(trace + (f"L{i}",))
                yield ping.set()
                yield pong.wait()

        def right():
            for i in range(rounds):
                yield ping.wait()
                trace = yield log.read()
                yield log.write(trace + (f"R{i}",))
                yield pong.set()

        return {"left": left, "right": right}

    return Program(f"handshake-{rounds}", setup)


def condvar_cell(values: int = 2) -> Program:
    """Single-slot channel with a mutex and two condition variables."""

    def setup(w: World):
        lock = w.mutex("lock")
        not_empty = w.condvar("not_empty")
        not_full = w.condvar("not_full")
        cell = w.var("cell", None)

        def producer():
            for i in range(values):
                yield lock.acquire()
                while True:
                    current = yield cell.read()
                    if current is None:
                        break
                    yield not_full.wait(lock)
                yield cell.write(i + 1)
                yield not_empty.notify()
                yield lock.release()

        def consumer():
            total = 0
            for _ in range(values):
                yield lock.acquire()
                while True:
                    current = yield cell.read()
                    if current is not None:
                        break
                    yield not_empty.wait(lock)
                yield cell.write(None)
                yield not_full.notify()
                yield lock.release()
                total += current
            check(total == values * (values + 1) // 2, "every value consumed once")

        return {"producer": producer, "consumer": consumer}

    return Program(f"condvar-cell-{values}", setup)


def use_after_free_toy() -> Program:
    """A reader races with a deallocating main thread.

    Main publishes the object and immediately frees it without waiting
    for the reader.  Running main to completion before the reader (all
    context switches nonpreempting) already dereferences freed memory:
    the bug surfaces at preemption bound zero.
    """

    def setup(w: World):
        node = w.alloc("node", payload=7)
        published = w.atomic("published", 0)

        def reader():
            ready = yield published.read()
            if ready:
                value = yield node.read("payload")
                check(value == 7, "payload intact")

        def main():
            yield published.write(1)
            # BUG: no wait for the reader to finish before freeing.
            yield node.free()

        return {"reader": reader, "main": main}

    return Program("uaf-toy", setup)


def chain_program(n_threads: int = 2, steps: int = 2) -> Program:
    """``n`` independent threads, each doing ``steps`` atomic steps.

    Non-blocking, so every interleaving of the bodies is a distinct
    execution: the ground-truth workload for validating Theorem 1's
    counting bound.
    """

    def setup(w: World):
        counters = [w.atomic(f"c{i}", 0) for i in range(n_threads)]

        def worker(i: int):
            for _ in range(steps):
                yield counters[i].add(1)

        return [(f"t{i}", worker, (i,)) for i in range(n_threads)]

    return Program(f"chain-{n_threads}x{steps}", setup)


def stats_race(rounds: int = 2) -> Program:
    """A data race surrounded by thread-local statistics counters.

    Each thread keeps a per-thread atomic operation counter (``ops0``,
    ``ops1``) around its accesses to the shared unlocked ``stat``
    variable.  The counters are scheduling points (atomic accesses)
    on variables no other thread touches, so ICB spends preemptions
    at them that cannot change any outcome; the race itself is
    already unordered in the round-robin execution and is reported at
    preemption bound zero.
    """

    def setup(w: World):
        stat = w.var("stat", 0)
        ops0 = w.atomic("ops0", 0)
        ops1 = w.atomic("ops1", 0)

        def writer():
            for i in range(rounds):
                yield ops0.add(1)
                yield stat.write(i + 1)
            yield ops0.add(1)

        def reader():
            for _ in range(rounds):
                yield ops1.add(1)
                yield stat.read()
            yield ops1.add(1)

        return {"t0": writer, "t1": reader}

    return Program(f"stats-race-{rounds}", setup)


def stats_assert(increments: int = 2) -> Program:
    """Atomic-counter lost update amid thread-local bookkeeping.

    Two workers perform the classic non-atomic ``v = read(); write(v +
    1)`` on a shared atomic ``total``, each also bumping a private
    atomic ``ops<i>`` before every update and signalling a done event
    at the end; a checker thread waits for both events and asserts the
    total.  Exposing the lost update requires preempting a worker *between its
    read and write of ``total``*.  A preemption spent at a private
    ``ops<i>`` access instead leaves no budget for a second one at
    bound 1, so the rest of that execution is serial and the
    assertion holds.
    """

    def setup(w: World):
        total = w.atomic("total", 0)
        ops = [w.atomic(f"ops{i}", 0) for i in range(2)]
        done = [w.event(f"done{i}") for i in range(2)]

        def worker(i: int):
            for _ in range(increments):
                yield ops[i].add(1)
                value = yield total.read()
                yield total.write(value + 1)
            yield done[i].set()

        def checker():
            yield done[0].wait()
            yield done[1].wait()
            final = yield total.read()
            check(
                final == 2 * increments,
                f"lost update: expected {2 * increments}, got {final}",
            )

        return [
            ("w0", worker, (0,)),
            ("w1", worker, (1,)),
            ("checker", checker, ()),
        ]

    return Program(f"stats-assert-{increments}", setup)


def stats_deadlock() -> Program:
    """The ABBA deadlock with thread-local counters outside the locks.

    Identical to :func:`lock_order_deadlock` except each thread bumps
    a private atomic counter before its first acquire and after its
    last release.  Preemptions at the private counters are wasted;
    the deadlock needs the preemption between the two acquires.
    """

    def setup(w: World):
        lock_a = w.mutex("A")
        lock_b = w.mutex("B")
        shared = w.var("shared", 0)
        c0 = w.atomic("c0", 0)
        c1 = w.atomic("c1", 0)

        def forward():
            yield c0.add(1)
            yield lock_a.acquire()
            yield lock_b.acquire()
            value = yield shared.read()
            yield shared.write(value + 1)
            yield lock_b.release()
            yield lock_a.release()
            yield c0.add(1)

        def backward():
            yield c1.add(1)
            yield lock_b.acquire()
            yield lock_a.acquire()
            value = yield shared.read()
            yield shared.write(value - 1)
            yield lock_a.release()
            yield lock_b.release()
            yield c1.add(1)

        return {"fwd": forward, "bwd": backward}

    return Program("stats-deadlock", setup)


def yielding_pair() -> Program:
    """Two threads with explicit yields (exercises YIELD semantics)."""

    def setup(w: World):
        token = w.atomic("token", 0)

        def worker(i: int):
            yield sched_yield()
            yield token.add(1)
            yield sched_yield()

        return [("a", worker, (0,)), ("b", worker, (1,))]

    return Program("yielding-pair", setup)
