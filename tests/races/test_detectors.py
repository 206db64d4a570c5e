"""The Goldilocks detector, and detector agreement."""

from __future__ import annotations

from repro import (
    BugKind,
    Execution,
    ExecutionConfig,
    Program,
    RaceDetection,
)
from repro.core.effects import EffectKind
from repro.core.thread import ThreadId
from repro.core.variables import AtomicVar, SharedVar
from repro.core.world import World
from repro.races.goldilocks import GoldilocksDetector

T0 = ThreadId((0,), "t0")
T1 = ThreadId((1,), "t1")


def make_world():
    world = World()
    return world, AtomicVar(world, "lock"), SharedVar(world, "data")


class TestGoldilocksUnit:
    def test_first_access_never_races(self):
        _, _, data = make_world()
        detector = GoldilocksDetector()
        assert detector.on_data(T0, data, True) is None

    def test_unordered_second_access_races(self):
        _, _, data = make_world()
        detector = GoldilocksDetector()
        detector.on_data(T0, data, True)
        race = detector.on_data(T1, data, True)
        assert race is not None and "goldilocks" in race

    def test_lockset_transfer_through_lock(self):
        _, lock, data = make_world()
        detector = GoldilocksDetector()
        # T0 writes under the lock, releases; T1 acquires, writes.
        detector.on_sync(T0, lock, EffectKind.ACQUIRE)
        detector.on_data(T0, data, True)
        detector.on_sync(T0, lock, EffectKind.RELEASE)
        detector.on_sync(T1, lock, EffectKind.ACQUIRE)
        assert detector.on_data(T1, data, True) is None

    def test_transfer_through_fork_edge(self):
        world = World()
        data = SharedVar(world, "data")
        created = AtomicVar(world, "created")
        detector = GoldilocksDetector()
        detector.on_data(T0, data, True)  # parent writes
        detector.on_sync(T0, created, EffectKind.SPAWN)  # publishes
        detector.on_sync(T1, created, EffectKind.START)  # child absorbs
        assert detector.on_data(T1, data, False) is None

    def test_classic_mode_needs_release_acquire_pairing(self):
        _, lock, data = make_world()
        detector = GoldilocksDetector(conservative=False)
        detector.on_sync(T0, lock, EffectKind.ACQUIRE)
        detector.on_data(T0, data, True)
        # No release: the lockset never gains the lock element.
        detector.on_sync(T1, lock, EffectKind.ACQUIRE)
        assert detector.on_data(T1, data, True) is not None


class TestEngineIntegration:
    def locked_program(self):
        def setup(w):
            lock = w.mutex("lock")
            data = w.var("data", 0)

            def t():
                yield lock.acquire()
                v = yield data.read()
                yield data.write(v + 1)
                yield lock.release()

            return {"t1": t, "t2": t}

        return Program("locked", setup)

    def racy_program(self):
        def setup(w):
            data = w.var("data", 0)

            def t():
                v = yield data.read()
                yield data.write(v + 1)

            return {"t1": t, "t2": t}

        return Program("racy", setup)

    def test_goldilocks_mode_clean_program(self):
        config = ExecutionConfig(race_detection=RaceDetection.GOLDILOCKS)
        ex = Execution(self.locked_program(), config).run_round_robin()
        assert not ex.bugs

    def test_goldilocks_mode_racy_program(self):
        config = ExecutionConfig(race_detection=RaceDetection.GOLDILOCKS)
        ex = Execution(self.racy_program(), config).run_round_robin()
        assert any(b.kind is BugKind.DATA_RACE for b in ex.bugs)

    def test_both_detectors_agree_on_verdicts(self):
        for program in (self.locked_program(), self.racy_program()):
            vc = Execution(
                program, ExecutionConfig(race_detection=RaceDetection.VECTOR_CLOCK)
            ).run_round_robin()
            gl = Execution(
                program, ExecutionConfig(race_detection=RaceDetection.GOLDILOCKS)
            ).run_round_robin()
            assert bool(vc.bugs) == bool(gl.bugs), program.name
