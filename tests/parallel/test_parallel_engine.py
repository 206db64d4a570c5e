"""The parallel engine: equivalence with serial ICB, determinism,
budget termination and crash robustness."""

from __future__ import annotations

import pytest

from repro import (
    ChessChecker,
    ParallelCoordinator,
    ParallelSettings,
    SearchLimits,
)
from repro.programs import resolve_builtin, toy
from repro.programs.bluetooth import bluetooth

from ..service._parity import BOUNDS


def summary(check_result):
    """The cross-process-comparable essence of a check.

    Witness *schedules* are excluded on purpose: serial and parallel
    runs may keep different (equally minimal) witnesses of the same
    defect.  Exact witness identity is only asserted between parallel
    runs, where the deterministic merge tie-break pins it down.
    """
    return {
        "executions": check_result.executions,
        "transitions": check_result.transitions,
        "distinct_states": check_result.distinct_states,
        "certified_bound": check_result.certified_bound,
        "bug_preemptions": sorted(
            (str(b.kind), b.preemptions) for b in check_result.bugs
        ),
    }


def witness_identities(check_result):
    return sorted(b.identity for b in check_result.bugs)


class TestSerialEquivalence:
    """Sharding partitions the frontier; it must not change what is
    explored, counted, certified or reported."""

    def test_buggy_program_matches_serial(self):
        serial = ChessChecker(bluetooth(buggy=True)).check(max_bound=1)
        parallel = ChessChecker(bluetooth(buggy=True)).check(max_bound=1, workers=2)
        assert summary(parallel) == summary(serial)
        assert parallel.search.completed and serial.search.completed

    def test_correct_program_certified(self):
        serial = ChessChecker(toy.locked_counter()).check(max_bound=2)
        parallel = ChessChecker(toy.locked_counter()).check(max_bound=2, workers=2)
        assert not parallel.found_bug
        assert parallel.certified_bound == serial.certified_bound == 2
        assert summary(parallel) == summary(serial)

    def test_exhaustive_run_completes(self):
        serial = ChessChecker(toy.chain_program(2, 2)).check()
        parallel = ChessChecker(toy.chain_program(2, 2)).check(workers=2)
        assert parallel.search.completed
        assert parallel.search.stop_reason == "exhausted state space"
        assert summary(parallel) == summary(serial)

    def test_parallel_find_bug_is_minimal(self):
        serial_bug = ChessChecker(bluetooth(buggy=True)).find_bug(max_bound=3)
        parallel_bug = ChessChecker(bluetooth(buggy=True)).find_bug(
            max_bound=3, workers=2
        )
        assert parallel_bug is not None
        assert parallel_bug.kind == serial_bug.kind
        assert parallel_bug.preemptions == serial_bug.preemptions

    def test_workers_rejects_custom_strategy_and_caching(self):
        from repro import DepthFirstSearch

        checker = ChessChecker(toy.racy_counter())
        with pytest.raises(ValueError):
            checker.check(strategy=DepthFirstSearch(), workers=2)
        with pytest.raises(ValueError):
            checker.check(workers=2, state_caching=True)


@pytest.mark.parametrize("spec", sorted(BOUNDS))
def test_analysis_composes_with_workers(spec):
    """Workers prune with the checker's one analysis, so the reduced
    search is the serial reduced search, sharded."""

    def reduced(workers):
        result = ChessChecker(resolve_builtin(spec)).check(
            max_bound=BOUNDS[spec], analysis=True, workers=workers
        )
        return summary(result), result.search.extras["analysis_pruned"]

    assert reduced(2) == reduced(None)


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize(
    "limits",
    [
        SearchLimits(),
        SearchLimits(max_transitions=300),
        SearchLimits(stop_on_first_bug=True),
    ],
    ids=["complete", "transition-budget", "first-bug"],
)
def test_every_exit_carries_the_same_extras(workers, limits):
    result = ChessChecker(bluetooth(buggy=True)).check(
        max_bound=1, limits=limits, workers=workers
    )
    assert {"completed_bound", "final_frontier", "analysis_pruned"} <= set(
        result.search.extras
    )


class TestDeterminism:
    """workers=1 and workers=4 must report the same certified bound
    and an identical minimal-preemption first bug."""

    def test_one_vs_four_workers(self):
        one = ChessChecker(bluetooth(buggy=True)).check(max_bound=2, workers=1)
        four = ChessChecker(bluetooth(buggy=True)).check(max_bound=2, workers=4)
        assert one.certified_bound == four.certified_bound == 2
        assert one.found_bug and four.found_bug
        first_one, first_four = one.search.first_bug, four.search.first_bug
        assert first_one.kind == first_four.kind
        assert first_one.preemptions == first_four.preemptions
        assert summary(one) == summary(four)

    def test_parallel_run_is_reproducible(self):
        runs = [
            ChessChecker(bluetooth(buggy=True)).check(max_bound=1, workers=3)
            for _ in range(2)
        ]
        assert summary(runs[0]) == summary(runs[1])
        assert witness_identities(runs[0]) == witness_identities(runs[1])


class TestBudgets:
    """Global budgets terminate the pool and mark the run incomplete."""

    def test_transition_budget(self):
        result = ChessChecker(bluetooth(buggy=True)).check(
            workers=2, limits=SearchLimits(max_transitions=300)
        )
        assert not result.search.completed
        assert "transition budget" in result.search.stop_reason
        assert result.transitions >= 300

    def test_execution_budget(self):
        result = ChessChecker(bluetooth(buggy=True)).check(
            workers=2, limits=SearchLimits(max_executions=20)
        )
        assert not result.search.completed
        assert "execution budget" in result.search.stop_reason
        assert result.executions >= 20

    def test_time_budget(self):
        result = ChessChecker(bluetooth(buggy=True)).check(
            workers=2, limits=SearchLimits(max_seconds=0.3)
        )
        assert not result.search.completed
        assert "time budget" in result.search.stop_reason

    def test_budget_stop_never_certifies_incomplete_bound(self):
        result = ChessChecker(bluetooth(buggy=True)).check(
            workers=2, limits=SearchLimits(max_transitions=300)
        )
        # Bound 0 takes ~77 transitions, bound 1 far more than the
        # remaining budget: only bound 0 may be certified.
        assert result.certified_bound in (None, 0)


class TestRobustness:
    """A dead worker's shard is requeued; exhausted retries surface
    the items as unexplored instead of silently dropping them."""

    def test_crash_recovery_matches_serial(self):
        serial = ChessChecker(bluetooth(buggy=True)).check(max_bound=1)
        crashed = ChessChecker(bluetooth(buggy=True)).check(
            max_bound=1,
            workers=2,
            parallel_settings=ParallelSettings(fault_crash_workers=(0,)),
        )
        assert summary(crashed) == summary(serial)
        assert crashed.search.completed
        assert crashed.search.extras["worker_failures"] == 1
        assert crashed.search.extras["shard_retries"] >= 1

    def test_crash_without_retries_surfaces_unexplored(self):
        result = ChessChecker(bluetooth(buggy=True)).check(
            max_bound=1,
            workers=2,
            parallel_settings=ParallelSettings(
                fault_crash_workers=(0,), max_shard_retries=0
            ),
        )
        assert not result.search.completed
        assert result.search.extras["unexplored_items"] > 0
        assert result.certified_bound is None
        # The healthy worker's shards still merged into the result.
        assert result.executions > 0

    def test_all_workers_crashing_still_returns(self):
        result = ChessChecker(bluetooth(buggy=True)).check(
            max_bound=0,
            workers=2,
            parallel_settings=ParallelSettings(
                fault_crash_workers=(0, 1), max_shard_retries=1
            ),
        )
        assert not result.search.completed
        assert result.search.extras["unexplored_items"] > 0
        assert result.certified_bound is None


class TestCoordinatorDirect:
    """The coordinator as a strategy, without the checker facade."""

    def test_run_returns_parallel_strategy_result(self):
        coordinator = ParallelCoordinator(workers=2, max_bound=1)
        result = coordinator.run(ChessChecker(bluetooth(buggy=True)).space())
        assert result.strategy == "icb-parallel"
        assert result.extras["completed_bound"] == 1
        assert result.extras["workers"] == 2

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ParallelCoordinator(workers=0)
        with pytest.raises(ValueError):
            ParallelCoordinator(workers=2, max_bound=-1)
        with pytest.raises(ValueError):
            ParallelCoordinator(workers=2, state_caching=True)
