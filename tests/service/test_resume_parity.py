"""The tentpole acceptance property: an interrupted-then-resumed
search reports exactly what an uninterrupted one would -- same
executions, transitions, distinct states, certified bound, per-bound
state histogram and ``BugReport.identity`` set -- for the serial
engine, the parallel engine, and across engines, on every buggy
built-in."""

from __future__ import annotations

import pytest

from repro import ChessChecker, ParallelSettings, SearchLimits
from repro.obs import EventBus, Instrumentation
from repro.programs import resolve_builtin

from ._parity import BOUNDS, baseline, identities, summary

#: Interrupt roughly mid-exploration, but cap the interrupted run so
#: the big benchmarks (ape:double-take explores ~150k transitions)
#: don't triple their cost; the resumed run redoes the rest.
def _cut(base):
    return max(5, min(base.transitions // 2, 2000))


@pytest.mark.parametrize("spec", sorted(BOUNDS))
def test_serial_interrupt_resume_parity(spec, tmp_path):
    base = baseline(spec)
    path = tmp_path / "serial.ckpt.json"
    interrupted = ChessChecker(resolve_builtin(spec)).check(
        max_bound=BOUNDS[spec],
        limits=SearchLimits(max_transitions=_cut(base)),
        checkpoint=path,
    )
    had_checkpoint = path.exists()
    resumed = ChessChecker(resolve_builtin(spec)).check(
        max_bound=BOUNDS[spec], checkpoint=path
    )
    assert resumed.search.completed
    assert summary(resumed) == summary(base)
    assert identities(resumed) == identities(base)
    if interrupted.search.completed:
        # Tiny state spaces can finish inside the budget; then the
        # "interruption" itself must already match.
        assert summary(interrupted) == summary(base)
    elif had_checkpoint:
        # (The smallest programs can hit the budget before the first
        # save; then resuming legitimately starts fresh.)
        assert resumed.search.extras.get("resumed") is True


@pytest.mark.parametrize("spec", sorted(BOUNDS))
def test_parallel_interrupt_resume_parity(spec, tmp_path):
    base = baseline(spec)
    path = tmp_path / "parallel.ckpt.json"
    checker = ChessChecker(resolve_builtin(spec))
    interrupted = checker.check(
        max_bound=BOUNDS[spec],
        workers=2,
        limits=SearchLimits(max_transitions=_cut(base)),
        checkpoint=path,
    )
    had_checkpoint = path.exists()
    resumed = ChessChecker(resolve_builtin(spec)).check(
        max_bound=BOUNDS[spec], workers=2, checkpoint=path
    )
    assert resumed.search.completed
    assert summary(resumed) == summary(base)
    assert identities(resumed) == identities(base)
    if not interrupted.search.completed and had_checkpoint:
        assert resumed.search.extras.get("resumed") is True


def test_cross_engine_resume_both_directions(tmp_path):
    spec, bound = "wsq:pop-race", 2
    base = baseline(spec)
    cut = SearchLimits(max_transitions=_cut(base))

    # Parallel checkpoint finished by the serial engine...
    path = tmp_path / "par-to-serial.ckpt.json"
    ChessChecker(resolve_builtin(spec)).check(
        max_bound=bound, workers=2, limits=cut, checkpoint=path
    )
    serial_finish = ChessChecker(resolve_builtin(spec)).check(
        max_bound=bound, checkpoint=path
    )
    assert summary(serial_finish) == summary(base)
    assert identities(serial_finish) == identities(base)

    # ...and a serial checkpoint finished by the parallel engine.
    path = tmp_path / "serial-to-par.ckpt.json"
    ChessChecker(resolve_builtin(spec)).check(
        max_bound=bound, limits=cut, checkpoint=path
    )
    parallel_finish = ChessChecker(resolve_builtin(spec)).check(
        max_bound=bound, workers=2, checkpoint=path
    )
    assert summary(parallel_finish) == summary(base)
    assert identities(parallel_finish) == identities(base)


def test_resuming_a_completed_checkpoint_is_a_fixed_point(tmp_path):
    spec, bound = "toy:stats-assert", 1
    base = baseline(spec)
    path = tmp_path / "done.ckpt.json"
    first = ChessChecker(resolve_builtin(spec)).check(
        max_bound=bound, checkpoint=path
    )
    again = ChessChecker(resolve_builtin(spec)).check(
        max_bound=bound, checkpoint=path
    )
    assert summary(first) == summary(base)
    assert summary(again) == summary(base)
    assert identities(again) == identities(base)
    assert again.search.completed


def test_resumed_metrics_match_an_uninterrupted_run(tmp_path):
    """MetricsSnapshot totals survive the interruption: the resumed
    run's snapshot equals an uninterrupted instrumented run's."""
    spec, bound = "wsq:pop-race", 2

    def instrumented(**kwargs):
        obs = Instrumentation(bus=EventBus())
        result = ChessChecker(resolve_builtin(spec)).check(
            max_bound=bound, obs=obs, **kwargs
        )
        snapshot = obs.snapshot()
        obs.close()
        return result, snapshot

    _, base_snap = instrumented()
    path = tmp_path / "metrics.ckpt.json"
    instrumented(
        limits=SearchLimits(max_transitions=2000), checkpoint=path
    )
    resumed, snap = instrumented(checkpoint=path)
    assert resumed.search.extras.get("resumed") is True
    for counter in ("executions", "transitions", "distinct_states", "bugs_found"):
        assert snap.counters.get(counter, 0) == base_snap.counters.get(counter, 0)
    assert snap.states_by_bound == base_snap.states_by_bound
    assert snap.executions_by_bound == base_snap.executions_by_bound
    assert snap.counters.get("checkpoint_resumes") == 1


def test_a_checkpoint_saves_only_its_own_search_metrics(tmp_path):
    """A registry shared by several searches (``repro serve
    --metrics-out``) holds the earlier ones' counts too; a checkpoint
    carries only its own search's, so the resume in a fresh registry
    counts nothing twice."""
    spec, bound = "wsq:pop-race", 2

    def check(obs, **kwargs):
        return ChessChecker(resolve_builtin(spec)).check(
            max_bound=bound, obs=obs, **kwargs
        )

    uninterrupted = Instrumentation(bus=EventBus())
    check(uninterrupted)
    expected = uninterrupted.snapshot()
    assert expected.executions_by_bound == {0: 3, 1: 44, 2: 542}
    assert expected.counters["searches"] == 1

    shared = Instrumentation(bus=EventBus())
    ChessChecker(resolve_builtin("toy:stats-race")).check(max_bound=1, obs=shared)
    path = tmp_path / "shared.ckpt.json"
    stopped = check(shared, limits=SearchLimits(max_transitions=2000), checkpoint=path)
    assert not stopped.search.completed and path.exists()

    fresh = Instrumentation(bus=EventBus())
    resumed = check(fresh, checkpoint=path)
    assert resumed.search.extras.get("resumed") is True
    snap = fresh.snapshot()
    assert snap.executions_by_bound == expected.executions_by_bound
    assert snap.counters["searches"] == 1
    for counter in ("executions", "transitions", "distinct_states", "bugs_found"):
        assert snap.counters.get(counter, 0) == expected.counters.get(counter, 0)


def test_worker_killed_twice_on_one_shard_still_matches_serial(tmp_path):
    """The crash-requeue path, twice over: the same shard kills two
    successive workers; the third attempt survives, the run completes
    and still reports exactly the serial result."""
    spec, bound = "toy:stats-race", 1
    serial = ChessChecker(resolve_builtin(spec)).check(max_bound=bound)
    settings = ParallelSettings(
        fault_crash_shard=0,
        fault_crash_attempts=2,
        max_shard_retries=2,
        shard_timeout=5.0,
    )
    result = ChessChecker(resolve_builtin(spec)).check(
        max_bound=bound,
        workers=3,
        parallel_settings=settings,
        checkpoint=tmp_path / "crash.ckpt.json",
    )
    assert result.search.completed
    assert result.search.extras["worker_failures"] == 2
    assert result.search.extras["shard_retries"] == 2
    assert result.search.extras["unexplored_items"] == 0
    assert summary(result) == summary(serial)
    assert identities(result) == identities(serial)
