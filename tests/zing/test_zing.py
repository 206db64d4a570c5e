"""The ZING modeling framework and explicit-state checker."""

from __future__ import annotations

import pytest

from repro import BugKind, DepthFirstSearch, IterativeContextBounding, RandomWalk
from repro.errors import ProgramDefinitionError
from repro.search.plan import PlanError
from repro.zing import (
    ZingChecker,
    ZingModel,
    ZingStateSpace,
    acquire,
    atomic,
    guarded,
    release,
)


class Counter(ZingModel):
    """Two threads incrementing a shared counter."""

    name = "counter"
    thread_labels = ("a", "b")

    def __init__(self, locked: bool = True, expect: int = 2) -> None:
        self.locked = locked
        self.expect = expect

    def initial_globals(self):
        return {"lock": None, "n": 0, "done": 0}

    def program(self, index):
        def load(ctx):
            ctx.l["tmp"] = ctx.g["n"]

        def store(ctx):
            ctx.g["n"] = ctx.l["tmp"] + 1
            ctx.g["done"] += 1
            if ctx.g["done"] == 2:
                ctx.require(ctx.g["n"] == self.expect, "lost update")

        body = [atomic(load), atomic(store)]
        if self.locked:
            return [acquire("lock")] + body + [release("lock")]
        return body


class TestModelBasics:
    def test_compile_validates_threads(self):
        class Empty(ZingModel):
            name = "empty"
            thread_labels = ()

            def initial_globals(self):
                return {}

            def program(self, index):
                return []

        with pytest.raises(ProgramDefinitionError):
            Empty().compile()

    def test_duplicate_labels_rejected(self):
        class Dup(ZingModel):
            name = "dup"
            thread_labels = ("t",)

            def initial_globals(self):
                return {}

            def program(self, index):
                return [atomic(lambda ctx: None, label="x"),
                        atomic(lambda ctx: None, label="x")]

        with pytest.raises(ProgramDefinitionError):
            Dup().compile()

    def test_goto_jumps(self):
        class Skipper(ZingModel):
            name = "skipper"
            thread_labels = ("t",)

            def initial_globals(self):
                return {"hits": 0, "skipped": 0}

            def program(self, index):
                def jump(ctx):
                    ctx.goto("end")

                def never(ctx):
                    ctx.g["skipped"] += 1

                def end(ctx):
                    ctx.g["hits"] += 1

                return [atomic(jump), atomic(never), atomic(end, label="end")]

        space = ZingStateSpace(Skipper())
        state = space.initial_state()
        while not space.is_terminal(state):
            state = space.execute(state, space.enabled(state)[0])
        assert state.globals_raw == {"hits": 1, "skipped": 0}

    def test_goto_unknown_label_rejected(self):
        class Bad(ZingModel):
            name = "bad"
            thread_labels = ("t",)

            def initial_globals(self):
                return {}

            def program(self, index):
                return [atomic(lambda ctx: ctx.goto("nowhere"))]

        space = ZingStateSpace(Bad())
        state = space.initial_state()
        with pytest.raises(ProgramDefinitionError):
            space.execute(state, space.enabled(state)[0])

    def test_finish_terminates_thread(self):
        class Quitter(ZingModel):
            name = "quitter"
            thread_labels = ("t",)

            def initial_globals(self):
                return {"after": 0}

            def program(self, index):
                def quit_now(ctx):
                    ctx.finish()

                def never(ctx):
                    ctx.g["after"] += 1

                return [atomic(quit_now), atomic(never)]

        space = ZingStateSpace(Quitter())
        state = space.initial_state()
        state = space.execute(state, space.enabled(state)[0])
        assert space.is_terminal(state)
        assert state.globals_raw["after"] == 0


class TestCheckerSemantics:
    def test_locked_counter_clean(self):
        result = ZingChecker(Counter(locked=True)).check()
        assert result.completed and not result.found_bug

    def test_a_custom_strategy_runs_without_the_work_item_table(self):
        checker = ZingChecker(Counter(locked=False))
        result = checker.check(strategy=DepthFirstSearch())
        assert result.strategy == "dfs" and result.found_bug
        with pytest.raises(PlanError, match="only to the default ICB strategy"):
            checker.check(strategy=DepthFirstSearch(), state_caching=True)

    def test_unlocked_counter_lost_update_at_one_preemption(self):
        bug = ZingChecker(Counter(locked=False)).find_bug()
        assert bug is not None
        assert bug.kind is BugKind.ASSERTION
        assert bug.preemptions == 1

    def test_deadlock_detected(self):
        class Stuck(ZingModel):
            name = "stuck"
            thread_labels = ("t",)

            def initial_globals(self):
                return {"never": False}

            def program(self, index):
                return [guarded(lambda ctx: ctx.g["never"], lambda ctx: None)]

        bug = ZingChecker(Stuck()).find_bug()
        assert bug is not None and bug.kind is BugKind.DEADLOCK

    def test_uncaught_exception_is_bug(self):
        class Crasher(ZingModel):
            name = "crash"
            thread_labels = ("t",)

            def initial_globals(self):
                return {}

            def program(self, index):
                return [atomic(lambda ctx: 1 // 0)]

        bug = ZingChecker(Crasher()).find_bug()
        assert bug.kind is BugKind.UNCAUGHT_EXCEPTION

    def test_strategies_interchangeable(self):
        model = Counter(locked=True)
        icb = IterativeContextBounding().run(ZingStateSpace(model))
        dfs = DepthFirstSearch().run(ZingStateSpace(model))
        rnd = RandomWalk(executions=50, seed=0).run(ZingStateSpace(model))
        assert set(rnd.context.states) <= set(dfs.context.states)
        assert set(icb.context.states) == set(dfs.context.states)

    def test_preemption_accounting_matches_native_engine(self):
        space = ZingStateSpace(Counter(locked=False))
        a, b = space.tids
        state = space.initial_state()
        state = space.execute(state, a)
        assert space.preemptions(state) == 0
        state = space.execute(state, b)  # a still enabled: preemption
        assert space.preemptions(state) == 1
        state = space.execute(state, b)
        assert space.preemptions(state) == 1

    def test_schedule_replayable(self):
        space = ZingStateSpace(Counter(locked=False))
        bug = ZingChecker(Counter(locked=False)).find_bug()
        state = space.initial_state()
        for tid in bug.schedule:
            state = space.execute(state, tid)
        assert any(b.kind is BugKind.ASSERTION for b in space.bugs(state))


class TestClassicDFS:
    def test_dfs_with_delta_stack_visits_all_states(self):
        stats = ZingChecker(Counter(locked=True)).dfs_with_delta_stack()
        baseline = DepthFirstSearch(state_caching=True).run(
            ZingStateSpace(Counter(locked=True))
        )
        # Both cache on canonical states; the classic loop counts the
        # root too, and work-item caching differs slightly from state
        # caching, so allow a small discrepancy in either direction.
        assert abs(stats["visited_states"] - len(baseline.context.states)) <= 1

    def test_delta_stack_compresses(self):
        stats = ZingChecker(Counter(locked=True)).dfs_with_delta_stack()
        assert 0 < stats["stack_compression_ratio"] < 1.0

    def test_finds_bugs(self):
        stats = ZingChecker(Counter(locked=False)).dfs_with_delta_stack()
        assert any(b.kind is BugKind.ASSERTION for b in stats["bugs"])


def test_fingerprints_do_not_depend_on_the_hash_seed():
    """Fingerprints digest the canonical encoding, not ``hash()``: two
    interpreters with different ``PYTHONHASHSEED`` values agree."""
    import ast
    import os
    import pathlib
    import subprocess
    import sys

    script = (
        "from repro.programs.transaction_manager import transaction_manager\n"
        "from repro.zing.checker import ZingStateSpace\n"
        "space = ZingStateSpace(transaction_manager())\n"
        "state = space.initial_state()\n"
        "prints = [space.fingerprint(state)]\n"
        "while not space.is_terminal(state) and len(prints) < 12:\n"
        "    state = space.execute(state, space.enabled(state)[-1])\n"
        "    prints.append(space.fingerprint(state))\n"
        "print(prints)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1
    assert len(ast.literal_eval(outputs.pop())) > 1
