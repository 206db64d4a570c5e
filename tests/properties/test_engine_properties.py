"""Property tests on the execution engine over generated programs."""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Execution, ExecutionConfig, SchedulingPolicy

from .profiles import examples
from .program_gen import build_program, program_shapes

RELAXED = settings(
    max_examples=examples(30),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_execution(program, seed, config=None):
    """Run one complete random-schedule execution."""
    ex = Execution(program, config)
    rng = random.Random(seed)
    while not ex.finished:
        enabled = ex.enabled_threads()
        ex.execute(enabled[rng.randrange(len(enabled))])
    return ex


class TestGeneratedProgramSanity:
    @RELAXED
    @given(program_shapes(), st.integers(0, 2**16))
    def test_generated_programs_terminate_cleanly(self, shape, seed):
        ex = random_execution(build_program(shape), seed)
        assert ex.completed and not ex.failed, ex.bugs

    @RELAXED
    @given(program_shapes(), st.integers(0, 2**16))
    def test_lock_discipline_is_race_free(self, shape, seed):
        ex = random_execution(build_program(shape), seed)
        assert not ex.bugs


class TestReplayDeterminism:
    @RELAXED
    @given(program_shapes(), st.integers(0, 2**16))
    def test_replay_reproduces_everything(self, shape, seed):
        program = build_program(shape)
        first = random_execution(program, seed)
        replay = Execution.replay(program, first.schedule)
        assert replay.fingerprint() == first.fingerprint()
        assert replay.preemptions == first.preemptions
        assert replay.total_accesses == first.total_accesses
        one, two = Execution(program), Execution(program)
        for tid in first.schedule:
            one.execute(tid)
            two.execute(tid)
            assert one.fingerprint() == two.fingerprint()


class TestCommutativity:
    @RELAXED
    @given(program_shapes(), st.integers(0, 2**16))
    def test_swapping_independent_steps_preserves_final_state(self, shape, seed):
        """Executions equal up to reordering of independent steps are
        equivalent (same HB), hence reach the same fingerprint."""
        program = build_program(shape)
        first = random_execution(program, seed)
        records = first.step_records
        # Find an adjacent pair from different threads with disjoint
        # target sets: independent by the paper's definition.
        swap_at = None
        for i in range(len(records) - 1):
            a, b = records[i], records[i + 1]
            if a.tid == b.tid:
                continue
            targets_a = {name for _, name in a.accesses if name}
            targets_b = {name for _, name in b.accesses if name}
            if targets_a & targets_b:
                continue
            swap_at = i
            break
        if swap_at is None:
            return  # nothing to swap in this execution
        schedule = list(first.schedule)
        schedule[swap_at], schedule[swap_at + 1] = (
            schedule[swap_at + 1],
            schedule[swap_at],
        )
        second = Execution.replay(program, schedule)
        assert second.fingerprint() == first.fingerprint()


class TestPolicyAgreement:
    @RELAXED
    @given(program_shapes(max_threads=2, max_ops=2), st.integers(0, 2**16))
    def test_policies_agree_on_final_state_of_round_robin(self, shape, seed):
        program = build_program(shape)
        sync_only = Execution(
            program, ExecutionConfig(policy=SchedulingPolicy.SYNC_ONLY)
        ).run_round_robin()
        every = Execution(
            program, ExecutionConfig(policy=SchedulingPolicy.EVERY_ACCESS)
        ).run_round_robin()
        for i in range(shape.n_vars):
            assert (
                sync_only.world.find(f"var{i}").value
                == every.world.find(f"var{i}").value
            )
        for i in range(shape.n_atomics):
            assert (
                sync_only.world.find(f"atomic{i}").value
                == every.world.find(f"atomic{i}").value
            )
