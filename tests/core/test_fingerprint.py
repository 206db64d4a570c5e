"""State fingerprints: canonical encoding, incremental digests, laziness.

Fingerprints key the work-item table and the distinct-state counts, and
checkpoints carry them into *other* processes, so they must be a pure
function of program state: the same in every interpreter whatever its
``PYTHONHASHSEED``, maintained incrementally without drifting from a
from-scratch recomputation, and never computed for a step nobody asks
about.
"""

from __future__ import annotations

import enum
import importlib
import os
import pathlib
import random
import subprocess
import sys

import pytest

import repro
from repro.core.execution import Execution
from repro.core.objects import DIGEST_MASK, SharedObject, digest, encode
from repro.core.program import Program
from repro.core.thread import ThreadHandle, ThreadId, ThreadState
from repro.core.world import World
from repro.errors import ProgramDefinitionError
from repro.programs import builtin_registry

REPO = pathlib.Path(repro.__file__).resolve().parents[2]


class Colour(enum.Enum):
    RED = 1
    BLUE = 2


class Opaque:
    """Hashable, but with no canonical encoding."""


class TestEncoding:
    def test_distinguishes_the_singletons(self):
        singles = [None, Ellipsis, NotImplemented]
        assert len({encode(value) for value in singles}) == 3
        assert len({encode((value,)) for value in singles}) == 3

    def test_equal_values_encode_equal(self):
        cases = [
            None,
            0,
            -7,
            2**80,
            1.5,
            "x",
            (1, None, ("y", Ellipsis)),
            frozenset({None, 1, ("a", None)}),
            Colour.RED,
        ]
        for value in cases:
            assert encode(value) == encode(value)

    def test_distinguishes_types_and_nesting(self):
        values = [1, True, 1.0, "1", (1,), [1], frozenset({1}), ((1,),), (1, 1)]
        assert len({encode(value) for value in values}) == len(values)
        assert encode(("ab", "c")) != encode(("a", "bc"))

    def test_frozensets_encode_independently_of_order(self):
        # 1, 9 and 17 share a slot in a small set table, so the two
        # frozensets are built by different probe sequences.
        forward, backward = frozenset([1, 9, 17]), frozenset([17, 9, 1])
        assert encode(forward) == encode(backward)
        assert encode(frozenset({"a", ("b", None)})) == encode(
            frozenset({("b", None), "a"})
        )

    def test_shared_objects_encode_by_name(self):
        first, second = World(), World()
        a1, a2 = first.var("a", 1), second.var("a", 2)
        assert encode(a1) == encode(a2)  # the name, not the state
        assert encode(a1) != encode(first.var("b", 1))
        assert encode(a1) != encode("a")

    def test_thread_ids_encode_by_path(self):
        assert encode(ThreadId((0, 1), "x")) == encode(ThreadId((0, 1), "y"))
        assert encode(ThreadId((0, 1))) != encode(ThreadId((1, 0)))
        assert encode(ThreadHandle(ThreadId((0,)))) != encode(ThreadId((0,)))

    def test_enum_members_encode_by_class_and_name(self):
        assert encode(Colour.RED) != encode(Colour.BLUE)
        assert encode(Colour.RED) != encode(1)

    def test_unencodable_value_fails_loudly(self):
        with pytest.raises(ProgramDefinitionError, match="Opaque"):
            encode(Opaque())
        with pytest.raises(ProgramDefinitionError, match="'object'"):
            encode((1, object()))

    def test_unencodable_shared_state_names_the_object(self):
        def setup(w):
            w.var("box", Opaque())

            def idle():
                yield w.find("box").read()

            return {"idle": idle}

        ex = Execution(Program("p", setup))
        with pytest.raises(ProgramDefinitionError, match=r"Opaque.*'box'"):
            ex.fingerprint()

    def test_unencodable_delivered_value_names_the_thread(self):
        box = {}

        def setup(w):
            v = w.var("box", 0)
            box["var"] = v

            def reader():
                yield v.read()

            return {"reader": reader}

        ex = Execution(Program("p", setup))
        box["var"].value = Opaque()  # bypasses the write-time hashability check
        with pytest.raises(ProgramDefinitionError, match=r"Opaque.*reader"):
            ex.execute(ex.enabled_threads()[0])


def _random_schedule_checks(program: Program, seed: int) -> int:
    """Run ``program`` under a random schedule; after every step compare
    the incremental digests with a from-scratch recomputation."""
    rng = random.Random(seed)
    ex = Execution(program)
    steps = 0
    while not ex.finished:
        enabled = ex.enabled_threads()
        ex.execute(enabled[rng.randrange(len(enabled))])
        steps += 1
        world = ex.world
        scratch = sum(obj.digest() for obj in world.objects) & DIGEST_MASK
        assert world.fingerprint() == scratch
        threads = sum(
            digest(encode((t.tid, t.local_fingerprint()))) for t in ex.threads.values()
        )
        assert ex.fingerprint() == (scratch + threads) & DIGEST_MASK
    return steps


class TestIncrementalDigest:
    @pytest.mark.parametrize("spec", sorted(builtin_registry()))
    def test_world_digest_matches_recompute_on_random_schedules(self, spec):
        factory = builtin_registry()[spec]
        for seed in range(3):
            assert _random_schedule_checks(factory(), seed) > 0

    @pytest.mark.parametrize(
        "module", ["bounded_queue", "lazy_singleton", "barrier_misuse", "hidden_state"]
    )
    def test_world_digest_matches_recompute_in_vivo(self, module):
        examples = importlib.import_module(f"examples.invivo.{module}")
        assert _random_schedule_checks(examples.make_program(), 0) > 0


class TestLaziness:
    def test_replay_computes_no_digest(self, monkeypatch):
        """Replay steps pay nothing for fingerprints: no world, object
        or thread digest is computed until someone asks, and then only
        once per step."""
        calls = []
        for owner, name in (
            (World, "fingerprint"),
            (SharedObject, "digest"),
            (ThreadState, "digest"),
        ):

            def counting(self, _original=getattr(owner, name), _name=name):
                calls.append(_name)
                return _original(self)

            monkeypatch.setattr(owner, name, counting)
        program = builtin_registry()["bluetooth"]()
        schedule = Execution(program).run_round_robin().schedule
        replay = Execution.replay(program, schedule)
        assert calls == []
        first = replay.fingerprint()
        assert calls
        del calls[:]
        assert replay.fingerprint() == first
        assert calls == []


#: Prints the fingerprint after every step of a fixed, preempting walk
#: over each program; fresh interpreters under different hash seeds
#: must print the same lines.
_SEQUENCE_SCRIPT = """
import sys
sys.path.insert(0, {repo!r})
from repro.core.execution import Execution
from repro.programs import resolve_builtin
from examples.invivo.bounded_queue import make_program

programs = [resolve_builtin(spec) for spec in ("wsq", "bluetooth", "dryad:use-after-free")]
for program in programs + [make_program()]:
    ex = Execution(program)
    fingerprints = []
    while not ex.finished:
        enabled = ex.enabled_threads()
        ex.execute(enabled[(7 * len(fingerprints)) % len(enabled)])
        fingerprints.append(ex.fingerprint())
    print(program.name, len(fingerprints), fingerprints)
"""


def _sequences_under_seed(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["PYTHONHASHSEED"] = seed
    proc = subprocess.run(
        [sys.executable, "-c", _SEQUENCE_SCRIPT.format(repo=str(REPO))],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_fingerprints_agree_across_hash_seeds():
    """Step-by-step fingerprints are a pure function of program state:
    fresh interpreters under different ``PYTHONHASHSEED``s agree."""
    one, two = _sequences_under_seed("1"), _sequences_under_seed("2")
    assert one.count("\n") == 4
    assert one == two
