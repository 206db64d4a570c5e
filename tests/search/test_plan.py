"""CheckPlan: one description of a check, validated where it is built."""

from __future__ import annotations

import pytest

from repro import ChessChecker, DepthFirstSearch, IterativeContextBounding, SearchLimits
from repro.parallel import ParallelCoordinator
from repro.programs import toy
from repro.search.plan import CheckPlan, PlanError

#: Plans the checker cannot run, and a fragment of each refusal.
REFUSED = [
    ({"max_bound": -1}, "max_bound must be non-negative"),
    ({"workers": 0}, "workers must be at least 1"),
    ({"workers": 2, "state_caching": True}, "state_caching is per-process"),
    ({"max_bound": "2"}, "field 'max_bound' must be int?"),
    ({"max_bound": True}, "field 'max_bound' must be int?"),
    ({"state_caching": 1}, "field 'state_caching' must be bool"),
]


@pytest.mark.parametrize("fields, fragment", REFUSED)
def test_a_refused_plan_cannot_be_built(fields, fragment):
    with pytest.raises(PlanError, match=fragment.replace("?", r"\?")):
        CheckPlan(**fields)


def test_a_plan_error_is_a_value_error():
    # Callers that caught the checker's ValueError still catch it.
    with pytest.raises(ValueError):
        CheckPlan(workers=0)


def test_one_worker_keeps_the_work_item_table():
    plan = CheckPlan(workers=1, state_caching=True)
    assert not plan.parallel
    assert isinstance(plan.strategy(), IterativeContextBounding)


def test_the_plan_builds_serial_or_parallel_icb():
    assert type(CheckPlan(max_bound=2).strategy()) is IterativeContextBounding
    coordinator = CheckPlan(max_bound=2, workers=3).strategy()
    assert isinstance(coordinator, ParallelCoordinator)
    assert (coordinator.workers, coordinator.max_bound) == (3, 2)


def test_a_custom_strategy_takes_only_the_budgets():
    dfs = DepthFirstSearch()
    limits = SearchLimits(max_executions=5)
    assert CheckPlan(limits=limits).strategy(dfs) is dfs
    for plan, wrapped in (
        (CheckPlan(max_bound=1), False),
        (CheckPlan(state_caching=True), False),
        (CheckPlan(workers=1), False),
        (CheckPlan(), True),
    ):
        with pytest.raises(PlanError, match="only to the default ICB strategy"):
            plan.strategy(dfs, wrapped=wrapped)


def test_flat_json_round_trips_and_refuses_unknown_keys():
    plan = CheckPlan(
        max_bound=2,
        workers=4,
        limits=SearchLimits(max_executions=9, max_transitions=99, stop_on_first_bug=True),
    )
    assert CheckPlan.from_json(plan.to_json()) == plan
    assert CheckPlan.from_json({}) == CheckPlan()
    with pytest.raises(PlanError, match="unknown field 'max_seconds'"):
        CheckPlan.from_json({"max_seconds": 3.0})


def test_a_record_is_read_without_refusing():
    # A journal record may predate submit-time validation; reading it
    # must not fail, and running the plan refuses it.
    record = {"id": "job-000001", "spec": "bluetooth", "workers": 2, "state_caching": True}
    plan = CheckPlan.from_json(record, record=True)
    assert (plan.workers, plan.state_caching) == (2, True)
    with pytest.raises(PlanError, match="state_caching is per-process"):
        plan.strategy()
    with pytest.raises(PlanError, match="max_bound must be non-negative"):
        CheckPlan.from_json({"max_bound": -1}, record=True).strategy()


def test_both_icb_engines_refuse_what_the_plan_refuses():
    with pytest.raises(PlanError, match="max_bound must be non-negative"):
        IterativeContextBounding(max_bound=-1)
    with pytest.raises(PlanError, match="workers must be at least 1"):
        ParallelCoordinator(workers=0)
    # The coordinator is the parallel engine at any worker count.
    with pytest.raises(PlanError, match="state_caching is per-process"):
        ParallelCoordinator(workers=1, state_caching=True)


def test_a_plan_or_its_fields_not_both():
    plan = CheckPlan(max_bound=1)
    assert CheckPlan.take(None, {"max_bound": 1}) == plan
    with pytest.raises(PlanError, match="not both"):
        CheckPlan.take(plan, {"max_bound": 2})


def test_check_accepts_a_plan_or_its_fields():
    checker = ChessChecker(toy.locked_counter())
    by_fields = checker.check(max_bound=1)
    by_plan = checker.check(CheckPlan(max_bound=1))
    assert by_plan.certified_bound == by_fields.certified_bound == 1
    assert by_plan.executions == by_fields.executions
    with pytest.raises(TypeError, match="unexpected keyword 'bound'"):
        checker.check(bound=1)


def test_find_bug_stops_its_plan_at_the_first_bug():
    checker = ChessChecker(toy.atomic_counter_assert())
    bug = checker.find_bug(max_bound=2)
    assert bug is not None and bug.preemptions == 1
    assert checker.find_bug(max_bound=0) is None


def test_find_bug_takes_no_strategy_and_no_work_item_table():
    # find_bug is ICB without the table: it takes check()'s other options.
    checker = ChessChecker(toy.atomic_counter_assert())
    with pytest.raises(TypeError, match="unexpected keyword 'strategy'"):
        checker.find_bug(strategy=DepthFirstSearch())
    with pytest.raises(PlanError, match="not both"):
        checker.find_bug(max_bound=2, state_caching=True)
