"""Property tests on the search strategies over generated programs."""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings

from repro import (
    ChessChecker,
    DepthFirstSearch,
    ExecutionConfig,
    IterativeContextBounding,
    SchedulingPolicy,
    SearchLimits,
)
from repro.theory import executions_with_preemptions_upper

from .profiles import examples
from .program_gen import build_program, program_shapes

SMALL = settings(
    max_examples=examples(15),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: Transition budget past which we give up on exhausting a generated
#: space (hypothesis will simply try another example).
BUDGET = SearchLimits(max_transitions=60_000)


def exhaust(strategy, space):
    result = strategy.run(space, limits=BUDGET)
    assume(result.completed)
    return result


class TestIcbEqualsDfs:
    @SMALL
    @given(program_shapes(max_threads=2, max_ops=2))
    def test_same_executions_and_states(self, shape):
        checker = ChessChecker(build_program(shape))
        icb = exhaust(IterativeContextBounding(), checker.space())
        dfs = exhaust(DepthFirstSearch(), checker.space())
        assert icb.executions == dfs.executions
        assert set(icb.context.states) == set(dfs.context.states)

    @SMALL
    @given(program_shapes(max_threads=2, max_ops=2))
    def test_icb_bound_tags_lower_bound_dfs_tags(self, shape):
        """ICB visits each state at its minimal preemption count, so
        its per-state tags are pointwise <= any other strategy's."""
        checker = ChessChecker(build_program(shape))
        icb = exhaust(IterativeContextBounding(), checker.space())
        dfs = exhaust(DepthFirstSearch(), checker.space())
        for fingerprint, bound in icb.context.states.items():
            assert bound <= dfs.context.states[fingerprint]


class TestTheorem1:
    @SMALL
    @given(program_shapes(max_threads=2, max_ops=2, max_vars=1, max_atomics=1))
    def test_per_bound_counts_within_theorem_bound(self, shape):
        program = build_program(shape)
        checker = ChessChecker(program)
        result = exhaust(IterativeContextBounding(), checker.space())
        ctx = result.context
        n = len(shape.threads)
        # Per-thread step and blocking maxima measured from the run.
        k = ctx.max_steps  # across all threads; per-thread is <= k
        b = max(2, ctx.max_blocking)  # START/EXIT end contexts
        # Count executions per preemption bound by re-running bounded.
        from repro.theory import count_by_preemptions

        histogram = count_by_preemptions(program)
        for c, count in histogram.items():
            bound = executions_with_preemptions_upper(n, k, min(b, k), c)
            assert count <= bound


class TestReductionSoundness:
    @SMALL
    @given(program_shapes(max_threads=2, max_ops=2))
    def test_sync_only_reaches_every_terminal_state(self, shape):
        """Theorem 2 in practice: on race-free programs, exploring only
        sync-granularity scheduling points reaches exactly the terminal
        states that full every-access exploration reaches."""
        program = build_program(shape)

        # Past this many executions, enumerate_executions truncates
        # silently and the terminal-state sets are no longer comparable;
        # assume such examples away instead of comparing partial sets.
        ENUM_LIMIT = 20_000

        def terminal_fingerprints(policy):
            checker = ChessChecker(program, ExecutionConfig(policy=policy))
            space = checker.space()
            result = exhaust(DepthFirstSearch(), space)
            finals = set()
            # Re-walk terminal states: cheapest to recompute via ICB
            # histories is awkward, so enumerate directly.
            from repro.theory.enumeration import enumerate_executions

            produced = 0
            for schedule, _, bugs in enumerate_executions(
                program, ExecutionConfig(policy=policy), limit=ENUM_LIMIT
            ):
                assert not bugs
                produced += 1
                from repro import Execution

                finals.add(
                    Execution.replay(
                        program, schedule, ExecutionConfig(policy=policy)
                    ).fingerprint()
                )
            assume(produced < ENUM_LIMIT)
            return finals

        sync_only = terminal_fingerprints(SchedulingPolicy.SYNC_ONLY)
        every = terminal_fingerprints(SchedulingPolicy.EVERY_ACCESS)
        assert sync_only == every

    @SMALL
    @given(program_shapes(max_threads=2, max_ops=2, max_vars=1, max_atomics=1))
    def test_sync_only_explores_no_more_executions(self, shape):
        """The reduction only ever shrinks the number of executions."""
        program = build_program(shape)
        counts = {}
        for policy in SchedulingPolicy:
            checker = ChessChecker(program, ExecutionConfig(policy=policy))
            counts[policy] = exhaust(DepthFirstSearch(), checker.space()).executions
        assert counts[SchedulingPolicy.SYNC_ONLY] <= counts[SchedulingPolicy.EVERY_ACCESS]
