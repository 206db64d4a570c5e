"""Pickle-safety of everything that crosses process boundaries.

The parallel engine ships work items, bug reports and shard results
through ``multiprocessing`` queues; these round-trips are the contract
it relies on.
"""

from __future__ import annotations

import pickle

from repro import (
    BugKind,
    BugReport,
    ExecutionConfig,
    RaceDetection,
    SchedulingPolicy,
    SearchContext,
    SearchLimits,
    SearchResult,
    ThreadId,
)
from repro.parallel.workitem import ShardTask


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestBugReportPickling:
    def make(self):
        return BugReport(
            kind=BugKind.DATA_RACE,
            message="race on balance",
            thread=ThreadId((1,), "writer"),
            schedule=(ThreadId((0,), "a"), ThreadId((1,), "writer")),
            preemptions=1,
            step_index=4,
            details=(("variable", "balance"),),
        )

    def test_roundtrip_preserves_equality(self):
        bug = self.make()
        clone = roundtrip(bug)
        assert clone == bug
        assert hash(clone) == hash(bug)

    def test_identity_stable_across_roundtrip(self):
        bug = self.make()
        assert roundtrip(bug).identity == bug.identity
        assert roundtrip(bug).signature == bug.signature

    def test_identity_distinguishes_witnesses(self):
        bug = self.make()
        other = BugReport(
            kind=bug.kind,
            message=bug.message,
            thread=bug.thread,
            schedule=(ThreadId((1,), "writer"), ThreadId((0,), "a")),
            preemptions=1,
        )
        assert other.signature == bug.signature  # same defect...
        assert other.identity != bug.identity  # ...different witness


class TestConfigPickling:
    def test_execution_config_roundtrip(self):
        config = ExecutionConfig(
            policy=SchedulingPolicy.EVERY_ACCESS,
            race_detection=RaceDetection.BOTH,
            strict_races=True,
            free_conflicts=True,
        )
        assert roundtrip(config) == config

    def test_search_limits_roundtrip(self):
        limits = SearchLimits(max_executions=3, max_seconds=1.0, stop_on_first_bug=True)
        assert roundtrip(limits) == limits


class TestParallelPayloadPickling:
    def test_shard_task_roundtrip(self):
        task = ShardTask(
            shard_id=3,
            bound=1,
            items=(((ThreadId((0,), "a"),), ThreadId((1,), "b")),),
        )
        assert roundtrip(task) == task

    def test_search_result_roundtrip(self):
        ctx = SearchContext(SearchLimits(max_executions=5))
        ctx.states = {12345: 0, 678: 1}
        ctx.executions = 2
        result = SearchResult(
            strategy="icb-shard",
            completed=True,
            stop_reason="shard exhausted",
            context=ctx,
            extras={"shard_id": 0},
        )
        clone = roundtrip(result)
        assert clone.executions == 2
        assert clone.context.states == ctx.states
