"""End-to-end integration: facade, replay, explain, cross-checker."""

from __future__ import annotations

import pytest

from repro import (
    BugKind,
    ChessChecker,
    ExecutionConfig,
    Program,
    SearchLimits,
)
from repro.programs import toy
from repro.zing import ZingChecker, ZingModel, acquire, atomic, release


class TestFacade:
    def test_summary_mentions_guarantee(self):
        result = ChessChecker(toy.locked_counter()).check(max_bound=1)
        assert "at most 1 preemption" in result.summary()

    def test_summary_lists_bugs(self):
        checker = ChessChecker(toy.atomic_counter_assert())
        result = checker.check(max_bound=1, limits=SearchLimits(stop_on_first_bug=True))
        assert "lost update" in result.summary()

    def test_strategy_and_bound_are_exclusive(self):
        from repro import DepthFirstSearch

        with pytest.raises(ValueError):
            ChessChecker(toy.locked_counter()).check(
                strategy=DepthFirstSearch(), max_bound=1
            )

    def test_the_removed_analysis_option_fails_loudly(self):
        # The analysis-driven search reduction is gone: a stale caller
        # is refused, never silently run without it.
        from repro.cli import main

        checker = ChessChecker(toy.locked_counter())
        with pytest.raises(TypeError, match="analysis"):
            checker.check(analysis=True)
        with pytest.raises(TypeError, match="analysis"):
            checker.find_bug(analysis=True)
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "wsq", "--analysis"])
        assert excinfo.value.code == 2


class TestWitnessReplay:
    def test_replay_reaches_the_bug(self):
        checker = ChessChecker(toy.atomic_counter_assert())
        bug = checker.find_bug()
        execution = checker.replay(bug)
        assert execution.failed
        assert execution.bugs[0].signature == bug.signature
        assert execution.preemptions == bug.preemptions

    def test_explain_marks_preempting_steps(self):
        checker = ChessChecker(toy.atomic_counter_assert())
        bug = checker.find_bug()
        text = checker.explain(bug)
        assert "preempting steps marked *" in text
        starred = [line for line in text.splitlines() if line.startswith("*")]
        assert len(starred) == bug.preemptions

    def test_deadlock_witness_replays(self):
        checker = ChessChecker(toy.lock_order_deadlock())
        bug = checker.find_bug()
        execution = checker.replay(bug)
        assert execution.deadlocked


class TestMinimalityAcrossPrograms:
    """ICB's first witness has minimal preemptions; a DFS witness of
    the same bug generally does not."""

    def test_dfs_witness_not_necessarily_minimal(self):
        from repro import DepthFirstSearch

        program = toy.atomic_counter_assert(n_threads=2, increments=2)
        checker = ChessChecker(program)
        icb_bug = checker.find_bug()
        dfs = DepthFirstSearch().run(
            checker.space(), limits=SearchLimits(stop_on_first_bug=True)
        )
        assert dfs.found_bug
        assert icb_bug.preemptions <= dfs.first_bug.preemptions


class TestCrossChecker:
    """The same algorithm modelled natively and in ZING agrees."""

    class ZingCounter(ZingModel):
        name = "counter-zing"
        thread_labels = ("a", "b")

        def __init__(self, locked):
            self.locked = locked

        def initial_globals(self):
            return {"lock": None, "n": 0, "finished": 0}

        def program(self, index):
            def load(ctx):
                ctx.l["tmp"] = ctx.g["n"]

            def store(ctx):
                ctx.g["n"] = ctx.l["tmp"] + 1
                ctx.g["finished"] += 1
                if ctx.g["finished"] == 2:
                    ctx.require(ctx.g["n"] == 2, "lost update")

            body = [atomic(load), atomic(store)]
            if self.locked:
                return [acquire("lock")] + body + [release("lock")]
            return body

    def native_counter(self, locked):
        def setup(w):
            lock = w.mutex("lock")
            n = w.atomic("n", 0)
            finished = w.atomic("finished", 0)

            def t():
                if locked:
                    yield lock.acquire()
                tmp = yield n.read()
                yield n.write(tmp + 1)
                done = yield finished.add(1)
                if done == 2:
                    from repro import check

                    check((yield n.read()) == 2, "lost update")
                if locked:
                    yield lock.release()

            return {"a": t, "b": t}

        return Program("counter-native", setup)

    @pytest.mark.parametrize("locked", [True, False], ids=["locked", "unlocked"])
    def test_verdicts_agree(self, locked):
        native = ChessChecker(self.native_counter(locked)).find_bug(max_bound=2)
        zing = ZingChecker(self.ZingCounter(locked)).find_bug(max_bound=2)
        assert (native is None) == (zing is None)
        if native is not None:
            assert native.preemptions == zing.preemptions == 1

    def test_same_bug_kind(self):
        native = ChessChecker(self.native_counter(False)).find_bug(max_bound=2)
        zing = ZingChecker(self.ZingCounter(False)).find_bug(max_bound=2)
        assert native.kind is zing.kind is BugKind.ASSERTION


class TestConfigurationMatrix:
    """The checker behaves sensibly across engine configurations."""

    @pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
    def test_locked_counter_clean_under_race_modes(self, strict):
        config = ExecutionConfig(strict_races=strict)
        result = ChessChecker(toy.locked_counter(), config).check(max_bound=1)
        assert not result.found_bug

    def test_every_access_policy_finds_same_minimal_bug(self):
        from repro import SchedulingPolicy

        config = ExecutionConfig(policy=SchedulingPolicy.EVERY_ACCESS)
        bug = ChessChecker(toy.atomic_counter_assert(), config).find_bug(max_bound=2)
        assert bug is not None and bug.preemptions == 1
