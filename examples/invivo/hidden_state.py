"""A lost update hidden in a plain attribute the checker cannot see.

``Stats.total`` is an ordinary Python attribute, not a
:class:`repro.invivo.Shared` cell: its reads and writes are invisible
to the scheduler, so race detection and state fingerprints are blind
to them.  Each buggy worker snapshots ``stats.total`` *before* taking
the lock and writes ``snapshot + 1`` inside it -- a lost update that
one preemption exposes (preempt a worker between its unsynchronized
read and its locked write, let the other worker run its whole
increment, then resume).  The checker thread then observes a total of
1 instead of 2 and fails its assertion.

The hidden-state lint flags exactly this shape:
``repro lint --module examples.invivo.hidden_state:make_program``
watches a bounded search of the program and reports a ``hidden-state``
finding for ``Stats.total`` because two checked threads write a plain
attribute without a ``Shared``/``Atomic`` wrapper.  The fixed variant keeps the counter in ``Shared`` and lints
clean, and the checker certifies it clean.

Each worker also owns a private ``Atomic`` scratch slot that no other
thread ever touches.  Atomic operations are scheduling points even
under the default sync-only policy, so ICB spends preemptions at each
one, although none of them can change the outcome.
"""

from repro import invivo
from repro.invivo import InvivoProgram

#: The seeded bug and the minimal preemption bound that exposes it,
#: pinned by tests/invivo and the CI job.
EXPECTED = {"kind": "assertion", "bound": 1}


class Stats:
    """Plain object whose ``total`` attribute is invisible shared state."""

    def __init__(self) -> None:
        self.total = 0


def _build(shared_counter: bool) -> InvivoProgram:
    def setup():
        lock = invivo.Lock("stats.lock")
        done = invivo.Semaphore(0, name="stats.done")
        stats = Stats()
        total = invivo.Shared(0, name="stats.total")

        def make_worker(mine: invivo.Atomic):
            def worker():
                mine.add(1)  # private scratch, provably thread-local
                if shared_counter:
                    with lock:
                        total.set(total.get() + 1)
                else:
                    snapshot = stats.total  # BUG: read outside the lock
                    with lock:
                        stats.total = snapshot + 1  # lost update
                mine.add(1)
                done.release()

            return worker

        def checker():
            done.acquire()
            done.acquire()
            count = total.get() if shared_counter else stats.total
            assert count == 2, "lost update: a worker increment vanished"

        return {
            "worker-1": make_worker(invivo.Atomic(0, name="stats.scratch-1")),
            "worker-2": make_worker(invivo.Atomic(0, name="stats.scratch-2")),
            "checker": checker,
        }

    name = "invivo-hidden-state" + ("-fixed" if shared_counter else "")
    expected = (
        () if shared_counter else ("lost update: a worker increment vanished",)
    )
    return InvivoProgram(name, setup, expected_bugs=expected)


def make_program() -> InvivoProgram:
    """The seeded-bug variant (plain-attribute counter)."""
    return _build(shared_counter=False)


def make_fixed() -> InvivoProgram:
    """The corrected variant (``Shared`` counter); certifiable."""
    return _build(shared_counter=True)
