"""Parallel observability: merged worker snapshots must reproduce the
serial run's totals exactly, and coordinator events must stream."""

from __future__ import annotations

from repro import ChessChecker
from repro.obs import Instrumentation, Sink
from repro.programs.bluetooth import bluetooth
from repro.search.strategy import SearchContext


class Recorder(Sink):
    def __init__(self):
        self.events = []

    def handle(self, event):
        self.events.append(event)


class TestParallelMetricsParity:
    def test_merged_worker_totals_equal_serial(self):
        serial_obs = Instrumentation()
        serial = ChessChecker(bluetooth(buggy=True)).check(max_bound=1, obs=serial_obs)
        parallel_obs = Instrumentation()
        parallel = ChessChecker(bluetooth(buggy=True)).check(
            max_bound=1, workers=2, obs=parallel_obs
        )
        assert parallel.executions == serial.executions
        s, p = serial_obs.snapshot(), parallel_obs.snapshot()
        assert p.executions == s.executions
        assert p.transitions == s.transitions
        assert p.distinct_states == s.distinct_states
        assert p.states_by_bound == s.states_by_bound
        assert p.executions_by_bound == s.executions_by_bound
        assert p.counters.get("bugs_found") == s.counters.get("bugs_found")

    def test_replay_counters_equal_serial(self):
        """Each worker replays exactly the prefixes the serial engine
        replays for the same work items, so the merged stateless-replay
        counters equal the serial run's."""
        serial_obs, parallel_obs = Instrumentation(), Instrumentation()
        ChessChecker(bluetooth(buggy=True)).check(max_bound=1, obs=serial_obs)
        ChessChecker(bluetooth(buggy=True)).check(
            max_bound=1, workers=2, obs=parallel_obs
        )
        s, p = serial_obs.snapshot(), parallel_obs.snapshot()
        assert s.counters["replays"] > 0 and s.counters["replay_steps"] > 0
        assert p.counters["replays"] == s.counters["replays"]
        assert p.counters["replay_steps"] == s.counters["replay_steps"]

    def test_parallel_snapshot_matches_merged_context(self):
        obs = Instrumentation()
        result = ChessChecker(bluetooth(buggy=True)).check(
            max_bound=1, workers=2, obs=obs
        )
        ctx = result.search.context
        snap = obs.snapshot()
        assert snap.executions == ctx.executions
        assert snap.transitions == ctx.transitions
        assert snap.distinct_states == len(ctx.states)
        assert snap.states_by_bound == ctx.states_by_bound()
        assert snap.counters.get("bugs_found", 0) == len(ctx.bugs)


class TestCoordinatorEvents:
    def test_lifecycle_and_heartbeats_stream(self):
        obs = Instrumentation()
        recorder = obs.bus.subscribe(Recorder())
        ChessChecker(bluetooth(buggy=True)).check(
            max_bound=1,
            workers=2,
            obs=obs,
        )
        kinds = [e.kind for e in recorder.events]
        assert kinds[0] == "search_started"
        assert kinds[-1] == "search_finished"
        assert [e.bound for e in recorder.events if e.kind == "bound_started"] == [0, 1]
        assert [e.bound for e in recorder.events if e.kind == "bound_completed"] == [0, 1]
        assert "worker_heartbeat" in kinds

    def test_heartbeat_totals_are_cumulative_per_worker(self):
        obs = Instrumentation()
        recorder = obs.bus.subscribe(Recorder())
        ChessChecker(bluetooth(buggy=True)).check(
            max_bound=1,
            workers=2,
            obs=obs,
        )
        per_worker = {}
        for event in recorder.events:
            if event.kind != "worker_heartbeat":
                continue
            last = per_worker.get(event.worker, (0, 0))
            assert event.executions >= last[0]
            assert event.transitions >= last[1]
            per_worker[event.worker] = (event.executions, event.transitions)
        assert per_worker  # at least one worker reported


class TestPicklingBoundary:
    def test_context_sheds_instrumentation_when_pickled(self):
        import pickle

        ctx = SearchContext(obs=Instrumentation())
        assert ctx.obs is not None
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.obs is None
