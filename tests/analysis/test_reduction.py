"""The analysis-driven reduction: fewer transitions, identical bugs.

The acceptance property from the issue: with ``analysis=`` enabled the
checker must find the *identical* bug set (same ``BugReport.identity``,
i.e. the same witness schedules) while exploring strictly fewer
transitions, on at least three builtins.  The TOP fallback and the
soundness guard are exercised here too.
"""

from __future__ import annotations

import pytest

from repro import (
    ChessChecker,
    ExecutionConfig,
    IterativeContextBounding,
    RaceCandidatePrioritizer,
    RaceDetection,
)
from repro.analysis import analyze
from repro.programs import builtin_registry, toy
from repro.search.pct import PCTScheduler

from .fixtures import opaque_program

REDUCIBLE_SPECS = [
    "toy:chain",
    "toy:stats-race",
    "toy:stats-assert",
    "toy:stats-deadlock",
]


def identities(result):
    return sorted(bug.identity for bug in result.bugs)


@pytest.mark.parametrize("spec", REDUCIBLE_SPECS)
def test_reduction_preserves_bugs_and_prunes(spec):
    program_factory = builtin_registry()[spec]

    baseline = ChessChecker(program_factory()).check(max_bound=1)
    reduced = ChessChecker(program_factory()).check(max_bound=1, analysis=True)

    assert identities(reduced) == identities(baseline)
    assert reduced.transitions < baseline.transitions, (
        f"{spec}: expected a strict reduction, got "
        f"{reduced.transitions} vs {baseline.transitions}"
    )
    assert reduced.search.extras["analysis_pruned"] > 0


class TestTopFallback:
    def test_opaque_program_still_finds_the_race(self):
        # The bodies defeat the AST analyzer, so the analysis is TOP,
        # nothing is pruned -- and the dynamic checker must still see
        # the race exactly as it would without the analysis.
        program = opaque_program()
        analysis = analyze(program)
        assert not analysis.reduction_enabled

        result = ChessChecker(opaque_program()).check(max_bound=1, analysis=True)
        assert result.found_bug
        assert any("data race" in b.message for b in result.bugs)
        assert result.search.extras["analysis_pruned"] == 0

        baseline = ChessChecker(opaque_program()).check(max_bound=1)
        assert identities(result) == identities(baseline)
        assert result.transitions == baseline.transitions


class TestSoundnessGuard:
    def test_no_pruning_without_race_detection(self):
        # Under the SYNC_ONLY policy a big step performs data accesses
        # the pending effect does not reveal; skipping deferrals is
        # then only sound relative to race detection.  With detection
        # off the guard must keep every deferral.
        config = ExecutionConfig(race_detection=RaceDetection.NONE)
        checker = ChessChecker(toy.stats_race(), config)
        result = checker.check(max_bound=1, analysis=True)
        assert result.search.extras["analysis_pruned"] == 0

    def test_no_pruning_when_races_are_not_fatal(self):
        config = ExecutionConfig(races_are_fatal=False)
        checker = ChessChecker(toy.stats_race(), config)
        result = checker.check(max_bound=1, analysis=True)
        assert result.search.extras["analysis_pruned"] == 0


class TestErrorPaths:
    def test_analysis_for_wrong_program_is_rejected(self):
        wrong = analyze(toy.racy_counter())
        checker = ChessChecker(toy.stats_race())
        with pytest.raises(ValueError, match="racy-counter"):
            checker.check(max_bound=1, analysis=wrong)


class TestParallelWorkers:
    def test_workers_prune_like_serial(self):
        serial = ChessChecker(toy.stats_race()).check(max_bound=1, analysis=True)
        parallel = ChessChecker(toy.stats_race()).check(
            max_bound=1, workers=2, analysis=True
        )
        assert identities(parallel) == identities(serial)
        assert parallel.transitions == serial.transitions
        pruned = parallel.search.extras["analysis_pruned"]
        assert pruned == serial.search.extras["analysis_pruned"] > 0


class TestPrioritizer:
    def test_prioritized_icb_finds_the_same_bugs(self):
        program = toy.stats_race()
        analysis = analyze(program)
        assert analysis.hot_variables, "stats-race must have a race candidate"

        strategy = IterativeContextBounding(
            max_bound=1, prioritizer=RaceCandidatePrioritizer(analysis)
        )
        result = ChessChecker(toy.stats_race()).check(strategy=strategy)
        baseline = ChessChecker(toy.stats_race()).check(max_bound=1)
        # The prioritizer reorders work *within* a bound swap; the set
        # of explored executions -- hence of bugs -- is unchanged.
        assert identities(result) == identities(baseline)

    def test_pct_with_analysis_still_finds_the_race(self):
        program = toy.racy_counter()
        strategy = PCTScheduler(
            depth=2, executions=200, seed=3, analysis=analyze(program)
        )
        result = ChessChecker(toy.racy_counter()).check(strategy=strategy)
        assert result.found_bug
