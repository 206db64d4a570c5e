"""Sleep-set partial-order reduction."""

from __future__ import annotations

import pytest

from repro import (
    BugKind,
    ChessChecker,
    DepthFirstSearch,
    ExecutionConfig,
    SchedulingPolicy,
    SleepSetDFS,
)
from repro.errors import ReproError
from repro.programs import toy

EVERY = ExecutionConfig(policy=SchedulingPolicy.EVERY_ACCESS)


def spaces(program):
    checker = ChessChecker(program, EVERY)
    return checker.space(), checker.space()


class TestSoundness:
    @pytest.mark.parametrize(
        "program",
        [
            toy.chain_program(2, 2),
            toy.chain_program(3, 2),
            toy.producer_consumer(2, 2),
            toy.locked_counter(2, 1),
            toy.event_handshake(2),
        ],
        ids=lambda p: p.name,
    )
    def test_same_state_coverage_as_plain_dfs(self, program):
        plain_space, por_space = spaces(program)
        plain = DepthFirstSearch().run(plain_space)
        por = SleepSetDFS().run(por_space)
        assert plain.completed and por.completed
        assert set(por.context.states) == set(plain.context.states)

    def test_finds_the_same_bugs(self):
        program = toy.lock_order_deadlock()
        plain_space, por_space = spaces(program)
        plain = DepthFirstSearch().run(plain_space)
        por = SleepSetDFS().run(por_space)
        assert plain.found_bug and por.found_bug
        assert {b.kind for b in por.bugs} == {b.kind for b in plain.bugs}
        assert BugKind.DEADLOCK in {b.kind for b in por.bugs}

    def test_finds_races(self):
        config = ExecutionConfig(policy=SchedulingPolicy.EVERY_ACCESS)
        checker = ChessChecker(toy.racy_counter(), config)
        por = SleepSetDFS().run(checker.space())
        assert any(b.kind is BugKind.DATA_RACE for b in por.bugs)


class TestReduction:
    @pytest.mark.parametrize(
        "program,min_factor",
        [
            (toy.chain_program(2, 2), 5),
            (toy.chain_program(3, 2), 100),
            (toy.producer_consumer(2, 2), 10),
        ],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_transitions_shrink_dramatically(self, program, min_factor):
        plain_space, por_space = spaces(program)
        plain = DepthFirstSearch().run(plain_space)
        por = SleepSetDFS().run(por_space)
        assert por.transitions * min_factor <= plain.transitions

    def test_fully_independent_threads_collapse_to_one_trace(self):
        _, por_space = spaces(toy.chain_program(3, 2))
        por = SleepSetDFS().run(por_space)
        # All interleavings of disjoint-variable threads are equivalent.
        assert por.executions == 1
        assert por.extras["pruned_branches"] > 0


def test_rejects_sync_only_spaces():
    checker = ChessChecker(toy.chain_program(2, 2))  # default SYNC_ONLY
    with pytest.raises(ReproError):
        SleepSetDFS().run(checker.space())


def test_footprints_disjoint_for_disjoint_targets():
    from repro import Execution

    ex = Execution(toy.chain_program(2, 1), EVERY)
    t0, t1 = ex.enabled_threads()
    fp0 = ex.pending_footprint(t0)
    fp1 = ex.pending_footprint(t1)
    assert fp0 and fp1
    assert fp0.isdisjoint(fp1)  # distinct creation events


def test_footprints_share_common_lock():
    from repro import Execution

    ex = Execution(toy.locked_counter(2, 1), EVERY)
    main = ex.enabled_threads()[0]
    while main in ex.enabled_threads():  # spawn both workers, block on join
        ex.execute(main)
    w0, w1 = ex.enabled_threads()
    ex.execute(w0)  # START; pending is now the lock acquire
    ex.execute(w1)  # START; pending is now the lock acquire
    assert ex.threads[w0].pending.kind.value == "acquire"
    assert ex.threads[w1].pending.kind.value == "acquire"
    assert not ex.pending_footprint(w0).isdisjoint(ex.pending_footprint(w1))
