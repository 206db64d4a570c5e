"""Rewinding to a state equals replaying it.

``ProgramStateSpace`` reaches a state that the live execution's path
holds a prefix of by *rewinding* the live execution to that prefix
(``Execution.rewind``: undo the later steps' object and thread
changes, drop what they created, fast-forward fresh generators for the
threads they sent values to, roll back the race detectors) and running
only the remaining steps.  For twenty seeded random schedules of every
built-in program and of a spawn/join/condition-variable program, the
first test rewinds to every prefix of the schedule and checks, against
a plain replay, the fingerprint, enabled set and preemption count at
the prefix, then every later step record and bug.  The second rewinds
to sampled prefixes and then schedules a *different* enabled thread,
so the steps after the prefix create threads and heap objects that the
undone steps had created under the same names.  Seeds alternate
between the default configuration and one with a scheduling point at
every access and both race detectors.

In-vivo programs and executions with monitors cannot be rewound; the
last two tests check that they fall back to replay and that the
fallback is counted.
"""

from __future__ import annotations

import random

import pytest

from repro import Execution, ExecutionConfig, ProgramStateSpace, monitor_factory
from repro.monitors import TraceCollector
from repro.programs import builtin_registry
from repro.search.icb import IterativeContextBounding

from .test_engine_golden import CONFIGS, notify_unlocked

SEEDS = range(20)

#: Longest schedule; restoring every prefix costs quadratic steps.
MAX_STEPS = 120


def random_schedule(program, config, seed):
    rng = random.Random(seed)
    execution = Execution(program, config)
    while not execution.finished and len(execution.schedule) < MAX_STEPS:
        execution.execute(rng.choice(execution.enabled_threads()))
    return tuple(execution.schedule)


def observe(execution):
    return (
        execution.fingerprint(),
        execution.enabled_threads(),
        execution.preemptions,
        execution.finished,
    )


def bug_keys(execution):
    return [
        (bug.kind, bug.schedule, bug.preemptions, bug.step_index, bug.message)
        for bug in execution.bugs
    ]


def reference(program, config, schedule):
    """Observations at every prefix, step records and bugs of a replay."""
    execution = Execution(program, config)
    states = [observe(execution)]
    for tid in schedule:
        execution.execute(tid)
        states.append(observe(execution))
    return states, list(execution.step_records), bug_keys(execution)


def programs():
    for spec, factory in sorted(builtin_registry().items()):
        yield spec, factory
    yield "notify-unlocked", notify_unlocked


@pytest.mark.parametrize("name,factory", list(programs()), ids=lambda v: v if isinstance(v, str) else "")
def test_restore_at_every_prefix_equals_replay(name, factory):
    restored = 0
    for seed in SEEDS:
        config = CONFIGS[seed % len(CONFIGS)]
        program = factory()
        schedule = random_schedule(program, config, seed)
        states, records, bugs = reference(program, config, schedule)
        space = ProgramStateSpace(program, config)
        space.execution_at(schedule)
        for length in range(len(schedule) - 1, 0, -1):
            where = (name, seed, length)
            execution = space.execution_at(schedule[:length])
            assert observe(execution) == states[length], where
            assert execution.step_records == records[:length], where
            execution = space.execution_at(schedule)
            assert execution.step_records == records, where
            assert bug_keys(execution) == bugs, where
            assert observe(execution) == states[-1], where
        # Every rebuild after the first was a restore.
        assert space.restores == space.replays - 1, (name, seed)
        restored += space.restores
    assert restored > 0


#: Programs whose threads spawn children or allocate heap objects.
CREATING = ("ape", "dryad", "wsq")

#: Prefixes rewound to per schedule in the diverging test.
DIVERGE_POINTS = 6


def diverging_schedule(program, config, schedule, length, rng):
    """``schedule[:length]``, then another enabled thread, then random
    steps; with the objects and threads that exist at the prefix."""
    execution = Execution.replay(program, schedule[:length], config)
    names = {obj.name for obj in execution.world.objects} | set(map(str, execution.threads))
    others = [tid for tid in execution.enabled_threads() if tid != schedule[length]]
    if not others:
        return None, names
    execution.execute(rng.choice(others))
    while not execution.finished and len(execution.schedule) < MAX_STEPS:
        execution.execute(rng.choice(execution.enabled_threads()))
    return tuple(execution.schedule), names


def created(execution):
    """Names of the execution's objects and threads."""
    return {obj.name for obj in execution.world.objects} | set(map(str, execution.threads))


@pytest.mark.parametrize("name,factory", list(programs()), ids=lambda v: v if isinstance(v, str) else "")
def test_rewind_then_diverge_equals_replay(name, factory):
    rewound = recreated = 0
    for seed in SEEDS:
        config = CONFIGS[seed % len(CONFIGS)]
        program = factory()
        schedule = random_schedule(program, config, seed)
        rng = random.Random(seed)
        space = ProgramStateSpace(program, config)
        lengths = range(1, len(schedule))
        for length in sorted(rng.sample(lengths, min(DIVERGE_POINTS, len(lengths)))):
            where = (name, seed, length)
            other, at_prefix = diverging_schedule(program, config, schedule, length, rng)
            if other is None:
                continue
            dropped = created(space.execution_at(schedule)) - at_prefix
            restores = space.restores
            execution = space.execution_at(other)
            assert space.restores == restores + 1, where
            reference = Execution.replay(program, other, config)
            assert observe(execution) == observe(reference), where
            assert execution.step_records == reference.step_records, where
            assert bug_keys(execution) == bug_keys(reference), where
            assert created(execution) == created(reference), where
            assert list(execution.threads) == list(reference.threads), where
            rewound += 1
            recreated += bool(dropped & created(execution))
    assert rewound > 0
    if name.split(":")[0] in CREATING:
        assert recreated > 0, name


def _search(space):
    result = IterativeContextBounding(max_bound=1).run(space)
    assert result.context.transitions > 0
    return space


def test_restore_is_used_by_the_search():
    space = _search(ProgramStateSpace(builtin_registry()["toy:dekker"]()))
    assert space.restores > 0 and space.restore_steps >= space.restores


def test_monitor_fallback_is_counted():
    config = ExecutionConfig(monitors=(monitor_factory(TraceCollector),))
    space = _search(ProgramStateSpace(builtin_registry()["toy:dekker"](), config))
    assert space.restores == 0
    assert space.replays > 1 and space.replay_steps > 0


def test_invivo_fallback_is_counted():
    from examples.invivo.lazy_singleton import make_fixed

    space = _search(ProgramStateSpace(make_fixed()))
    assert space.restores == 0
    assert space.replays > 1 and space.replay_steps > 0
