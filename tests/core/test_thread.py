"""Thread identities and per-thread state."""

from __future__ import annotations

import pickle

import pytest

from repro.core.thread import ThreadHandle, ThreadId, ThreadState, ThreadStatus
from repro.core.sync import Event
from repro.core.world import World


class TestThreadId:
    def test_ordering_by_path(self):
        ids = [ThreadId((1,)), ThreadId((0, 2)), ThreadId((0,)), ThreadId((0, 1))]
        assert sorted(ids) == [
            ThreadId((0,)),
            ThreadId((0, 1)),
            ThreadId((0, 2)),
            ThreadId((1,)),
        ]

    def test_equality_ignores_label(self):
        assert ThreadId((0,), "a") == ThreadId((0,), "b")
        assert hash(ThreadId((0,), "a")) == hash(ThreadId((0,), "b"))

    def test_ordering_ignores_label(self):
        # Ordering agrees with equality: equal ids are never ordered.
        a, b = ThreadId((0,), "a"), ThreadId((0,), "b")
        assert not a < b and not b < a
        assert not a > b and not b > a
        assert a <= b and b <= a and a >= b and b >= a
        assert ThreadId((0,), "z") < ThreadId((1,), "a")
        assert sorted([ThreadId((1,), "a"), ThreadId((0, 5), "z")]) == [
            ThreadId((0, 5)),
            ThreadId((1,)),
        ]

    def test_interned_by_path_and_label(self):
        assert ThreadId((0, 1), "w") is ThreadId((0, 1), "w")
        assert ThreadId.from_path("0.1", "w") is ThreadId((0, 1), "w")
        # Another label is another object, still equal by path.
        other = ThreadId((0, 1), "x")
        assert other is not ThreadId((0, 1), "w")
        assert other == ThreadId((0, 1), "w") and other.label == "x"

    def test_hash_is_the_path_hash(self):
        assert hash(ThreadId((3, 1), "t")) == hash((3, 1))

    def test_immutable(self):
        tid = ThreadId((0,), "t")
        with pytest.raises(AttributeError):
            tid.path = (1,)
        with pytest.raises(AttributeError):
            tid.label = "other"

    def test_pickle_round_trip(self):
        tid = ThreadId((2, 0), "child")
        clone = pickle.loads(pickle.dumps(tid))
        assert clone is tid
        assert clone.label == "child"
        assert hash(clone) == hash(tid)

    def test_child_ids(self):
        parent = ThreadId((2,), "main")
        child = parent.child(0, "worker")
        assert child.path == (2, 0)
        assert str(child) == "worker"
        grandchild = child.child(3)
        assert grandchild.path == (2, 0, 3)

    def test_str_falls_back_to_path(self):
        assert str(ThreadId((1, 2))) == "1.2"

    def test_repr(self):
        assert "ThreadId" in repr(ThreadId((0,), "t"))


class TestThreadIdFromPath:
    """Round-tripping identities through serialized forms."""

    def test_from_sequence(self):
        assert ThreadId.from_path([0, 2, 1]) == ThreadId((0, 2, 1))
        assert ThreadId.from_path((3,), "main").label == "main"

    def test_from_dotted_string(self):
        assert ThreadId.from_path("0.2.1") == ThreadId((0, 2, 1))
        assert ThreadId.from_path("4") == ThreadId((4,))

    def test_dotted_rendering_round_trips(self):
        original = ThreadId((1, 0, 2))
        dotted = ".".join(map(str, original.path))
        assert ThreadId.from_path(dotted) == original

    def test_label_preserved_but_ignored_for_identity(self):
        rebuilt = ThreadId.from_path("0.1", "worker")
        assert rebuilt.label == "worker"
        assert rebuilt == ThreadId((0, 1), "other")

    @pytest.mark.parametrize(
        "bad", ["", "  ", "a.b", "0..1", "-1", [0, -1], [], [0, "x"], [True]]
    )
    def test_malformed_paths_rejected(self, bad):
        with pytest.raises(ValueError):
            ThreadId.from_path(bad)


class TestThreadHandle:
    def test_hashable_and_comparable(self):
        a = ThreadHandle(ThreadId((0, 0), "w"))
        b = ThreadHandle(ThreadId((0, 0), "w"))
        assert a == b
        assert hash(a) == hash(b)


class TestThreadState:
    def make(self):
        w = World()

        def body():
            yield None  # pragma: no cover - never started here

        created = Event(w, "c", initial=True)
        done = Event(w, "d")
        return ThreadState(ThreadId((0,), "t"), body, (), created, done)

    def test_initial_state(self):
        thread = self.make()
        assert thread.status is ThreadStatus.NEW
        assert thread.alive
        assert thread.steps == 0
        assert thread.input_chain == 0

    def test_input_chain_depends_on_values_and_order(self):
        a, b = self.make(), self.make()
        a.record_input(1)
        a.record_input(2)
        b.record_input(2)
        b.record_input(1)
        assert a.input_chain != b.input_chain

    def test_input_chain_handles_unhashable(self):
        thread = self.make()
        thread.record_input([1, 2])  # lists encode element-wise
        assert thread.input_chain != 0

    def test_local_fingerprint_changes_with_progress(self):
        thread = self.make()
        before = thread.local_fingerprint()
        thread.steps += 1
        assert thread.local_fingerprint() != before

    def test_terminal_statuses_not_alive(self):
        thread = self.make()
        thread.status = ThreadStatus.FINISHED
        assert not thread.alive
        thread.status = ThreadStatus.FAILED
        assert not thread.alive
