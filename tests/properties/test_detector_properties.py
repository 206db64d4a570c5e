"""Detector agreement properties over generated racy/clean programs."""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Execution, ExecutionConfig, Program, RaceDetection

from .profiles import examples

RELAXED = settings(
    max_examples=examples(25),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def mixed_program(protect_mask: int, n_threads: int = 2):
    """Threads touching two data vars; ``protect_mask`` selects which
    of them are accessed under the lock (bit set = protected)."""

    def setup(w):
        lock = w.mutex("lock")
        vars_ = [w.var("v0", 0), w.var("v1", 0)]

        def worker():
            for i, var in enumerate(vars_):
                protected = protect_mask & (1 << i)
                if protected:
                    yield lock.acquire()
                value = yield var.read()
                yield var.write(value + 1)
                if protected:
                    yield lock.release()

        return {f"t{i}": worker for i in range(n_threads)}

    return Program(f"mixed-{protect_mask}", setup)


def run_random(program, seed, detection):
    config = ExecutionConfig(race_detection=detection, races_are_fatal=False)
    ex = Execution(program, config)
    rng = random.Random(seed)
    while not ex.finished:
        enabled = ex.enabled_threads()
        ex.execute(enabled[rng.randrange(len(enabled))])
    return ex


class TestDetectorAgreement:
    @RELAXED
    @given(st.integers(0, 3), st.integers(0, 2**16))
    def test_goldilocks_flags_whenever_vector_clock_does(self, mask, seed):
        """Goldilocks computes the paper's HB conservatively, and it
        additionally treats read-read sharing as ownership transfer, so
        its verdicts are a superset of the vector-clock detector's."""
        program = mixed_program(mask)
        vc = run_random(program, seed, RaceDetection.VECTOR_CLOCK)
        gl = run_random(program, seed, RaceDetection.GOLDILOCKS)
        if vc.bugs:
            assert gl.bugs

    @RELAXED
    @given(st.integers(0, 2**16))
    def test_fully_protected_program_clean_under_all_detectors(self, seed):
        program = mixed_program(protect_mask=3)
        for detection in (
            RaceDetection.VECTOR_CLOCK,
            RaceDetection.GOLDILOCKS,
            RaceDetection.BOTH,
        ):
            assert not run_random(program, seed, detection).bugs

    @RELAXED
    @given(st.integers(0, 2), st.integers(0, 2**16))
    def test_unprotected_var_eventually_flagged_by_both(self, mask, seed):
        """With at least one unprotected variable, *some* schedule is
        racy; the round-robin-free random runs here are all unordered,
        so every complete execution carries the race."""
        program = mixed_program(mask)  # mask < 3: some var unprotected
        vc = run_random(program, seed, RaceDetection.VECTOR_CLOCK)
        gl = run_random(program, seed, RaceDetection.GOLDILOCKS)
        assert vc.bugs and gl.bugs

    @RELAXED
    @given(st.integers(0, 3), st.integers(0, 2**16))
    def test_strict_mode_is_superset_of_default(self, mask, seed):
        program = mixed_program(mask)
        plain = Execution(
            program, ExecutionConfig(races_are_fatal=False)
        )
        strict = Execution(
            program, ExecutionConfig(races_are_fatal=False, strict_races=True)
        )
        rng1, rng2 = random.Random(seed), random.Random(seed)
        while not plain.finished:
            enabled = plain.enabled_threads()
            plain.execute(enabled[rng1.randrange(len(enabled))])
        while not strict.finished:
            enabled = strict.enabled_threads()
            strict.execute(enabled[rng2.randrange(len(enabled))])
        if plain.bugs:
            assert strict.bugs
