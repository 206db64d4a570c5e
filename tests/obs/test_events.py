"""Event-stream correctness: ordering, pairing, round-trip, validation."""

from __future__ import annotations

import pytest

from repro import ChessChecker
from repro.obs import (
    EVENT_TYPES,
    EventBus,
    Instrumentation,
    ObsFormatError,
    Sink,
    event_from_dict,
)
from repro.programs import toy


class Recorder(Sink):
    """Collects every emitted event, in order."""

    def __init__(self):
        self.events = []

    def handle(self, event):
        self.events.append(event)


def instrumented_check(program, **kwargs):
    obs = Instrumentation()
    recorder = obs.bus.subscribe(Recorder())
    result = ChessChecker(program).check(obs=obs, **kwargs)
    return result, recorder.events


class TestEventOrdering:
    def test_search_events_bracket_the_stream(self):
        result, events = instrumented_check(toy.atomic_counter_assert(), max_bound=2)
        assert events[0].kind == "search_started"
        assert events[-1].kind == "search_finished"
        assert sum(1 for e in events if e.kind == "search_started") == 1
        assert sum(1 for e in events if e.kind == "search_finished") == 1

    def test_timestamps_are_monotone(self):
        _, events = instrumented_check(toy.atomic_counter_assert(), max_bound=2)
        times = [e.t for e in events]
        assert times == sorted(times)
        assert times[0] >= 0.0

    def test_execution_start_finish_pairing(self):
        _, events = instrumented_check(toy.atomic_counter_assert(), max_bound=2)
        open_index = None
        finished = []
        for event in events:
            if event.kind == "execution_started":
                assert open_index is None, "nested execution_started"
                open_index = event.index
            elif event.kind == "execution_finished":
                assert open_index == event.index, "finish without matching start"
                finished.append(event.index)
                open_index = None
        assert open_index is None
        assert finished == sorted(finished)
        assert finished == list(range(1, len(finished) + 1))

    def test_bounds_start_and_complete_in_order(self):
        result, events = instrumented_check(toy.atomic_counter_assert(), max_bound=2)
        started = [e.bound for e in events if e.kind == "bound_started"]
        completed = [e.bound for e in events if e.kind == "bound_completed"]
        assert started == [0, 1, 2]
        assert completed == [0, 1, 2]
        final = [e for e in events if e.kind == "bound_completed"][-1]
        assert final.executions == result.executions

    def test_final_totals_match_result(self):
        result, events = instrumented_check(toy.atomic_counter_assert(), max_bound=2)
        fin = events[-1]
        assert fin.executions == result.executions
        assert fin.transitions == result.transitions
        assert fin.states == result.distinct_states
        assert fin.bugs == len(result.bugs)

    def test_state_visited_counts_are_increasing(self):
        result, events = instrumented_check(toy.atomic_counter_assert(), max_bound=2)
        visited = [e.states for e in events if e.kind == "state_visited"]
        assert visited == sorted(visited)
        # One discovery event per distinct state (revisits stay silent).
        assert len(visited) == result.distinct_states

    def test_bug_found_is_a_milestone_not_a_tally(self):
        result, events = instrumented_check(toy.atomic_counter_assert(), max_bound=2)
        assert result.found_bug
        new_bugs = [e for e in events if e.kind == "bug_found" and e.new]
        assert len(new_bugs) == len(result.bugs)
        # Improved witnesses may re-emit with new=False, never more
        # than once per (signature, preemption level); with bound 2
        # that is a handful, not one per re-encounter.
        all_bugs = [e for e in events if e.kind == "bug_found"]
        assert len(all_bugs) <= len(result.bugs) * 3


class TestNoOpFastPath:
    def test_bus_without_sinks_is_inactive(self):
        assert EventBus().active is False

    def test_metrics_flow_without_any_sink(self):
        obs = Instrumentation()
        assert obs.bus.active is False
        result = ChessChecker(toy.atomic_counter_assert()).check(max_bound=1, obs=obs)
        snap = obs.snapshot()
        assert snap.executions == result.executions
        assert snap.transitions == result.transitions

    def test_uninstrumented_check_still_works(self):
        result = ChessChecker(toy.atomic_counter_assert()).check(max_bound=1)
        assert result.found_bug


class TestWireFormat:
    def test_round_trip_every_emitted_event(self):
        _, events = instrumented_check(toy.atomic_counter_assert(), max_bound=2)
        kinds = {e.kind for e in events}
        assert "search_started" in kinds and "bug_found" in kinds
        for event in events:
            data = event.to_dict()
            rebuilt = event_from_dict(data)
            assert type(rebuilt) is type(event)
            assert rebuilt.to_dict() == data

    def test_every_registered_kind_has_matching_tag(self):
        for tag, cls in EVENT_TYPES.items():
            assert cls.kind == tag

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObsFormatError, match="unknown event kind"):
            event_from_dict({"e": "no_such_event", "t": 0.0})

    def test_missing_key_rejected(self):
        with pytest.raises(ObsFormatError, match="missing key"):
            event_from_dict({"e": "bound_started", "t": 0.0, "bound": 1})

    def test_extra_key_rejected(self):
        with pytest.raises(ObsFormatError, match="unexpected key"):
            event_from_dict(
                {"e": "bound_started", "t": 0.0, "bound": 1, "frontier": 2, "x": 3}
            )

    def test_wrong_type_rejected(self):
        with pytest.raises(ObsFormatError, match="'bound' must be int"):
            event_from_dict(
                {"e": "bound_started", "t": 0.0, "bound": "zero", "frontier": 2}
            )

    def test_bool_is_not_an_int(self):
        with pytest.raises(ObsFormatError, match="must be int"):
            event_from_dict(
                {"e": "bound_started", "t": 0.0, "bound": True, "frontier": 2}
            )

    def test_non_object_rejected(self):
        with pytest.raises(ObsFormatError, match="must be an object"):
            event_from_dict([1, 2, 3])


class TestNewSubsystemEvents:
    """Events added with repro.invivo."""

    def test_invivo_run_round_trips(self):
        from repro.obs.events import InvivoRun

        event = InvivoRun(
            t=1.5, program="p", threads=4, handshakes=9, abandoned=1
        )
        data = event.to_dict()
        rebuilt = event_from_dict(data)
        assert type(rebuilt) is InvivoRun and rebuilt.to_dict() == data

    def test_invivo_check_emits_one_run_event(self):
        from repro.invivo import InvivoProgram, Shared

        def setup():
            data = Shared(0, name="d")

            def bump():
                data.set(data.get() + 1)

            return {"a": bump, "b": bump}

        _, events = instrumented_check(
            InvivoProgram("racy-bump", setup), max_bound=1
        )
        runs = [e for e in events if e.kind == "invivo_run"]
        assert len(runs) == 1
        assert runs[0].program == "racy-bump"
        assert runs[0].threads > 0 and runs[0].handshakes > 0
