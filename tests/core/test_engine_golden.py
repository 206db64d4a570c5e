"""Engine equivalence: everything an execution computes, pinned.

Twenty seeded random schedules of every built-in program, of the four
``examples/invivo`` programs and of one condition-variable program
below are driven through the engine.  At
every state the test records the enabled set, the preemption count and
the fingerprint; after every step, the step record; at the end, every
bug.  A SHA-256 over all of it is pinned, so any change to the engine's
per-step bookkeeping that alters what it computes -- an enabled set,
a fingerprint byte, a step record, a preemption count or a bug -- shows
up as a different digest.  The fingerprints must stay byte-identical
because checkpoints and result-cache entries written by earlier
versions key on them.

The same walk checks, at every state, that the engine's maintained
enabled set equals a from-scratch evaluation of every thread, done by
the reference evaluation below (not by the engine); a mismatch fails
with the program, seed and step.
"""

from __future__ import annotations

import hashlib
import importlib
import random

from repro import Execution, ExecutionConfig, Program, RaceDetection, SchedulingPolicy
from repro.core.effects import EffectKind, join, spawn
from repro.programs import builtin_registry

INVIVO_EXAMPLES = (
    "examples.invivo.bounded_queue",
    "examples.invivo.lazy_singleton",
    "examples.invivo.barrier_misuse",
    "examples.invivo.hidden_state",
)

SEEDS = range(20)

#: Seeds alternate between the default configuration and one with a
#: scheduling point at every access and both race detectors.
CONFIGS = (
    ExecutionConfig(),
    ExecutionConfig(
        policy=SchedulingPolicy.EVERY_ACCESS, race_detection=RaceDetection.BOTH
    ),
)

#: Longest walk; random schedules of spin loops terminate with
#: probability one but not within any fixed number of steps.
MAX_STEPS = 400

#: SHA-256 of every walk below, computed with the engine before its
#: per-step bookkeeping was made incremental.
GOLDEN = "a60d2ca6c8eb5add067ccd9a32393cfbbdd298110001d69e05db95d3e088fda3"


def reference_enabled(execution):
    """enabled(alpha) evaluated from scratch over every thread."""
    if execution.failed:
        return ()
    enabled = []
    for thread in execution.threads.values():
        effect = thread.pending
        if effect is None:
            continue
        kind = effect.kind
        if kind is EffectKind.START:
            ok = thread.created_event.is_set
        elif kind is EffectKind.JOIN:
            ok = execution.threads[effect.args[0].tid].done_event.is_set
        elif kind in (
            EffectKind.EXIT,
            EffectKind.SPAWN,
            EffectKind.YIELD,
            EffectKind.ALLOC,
            EffectKind.CV_WAIT,
            EffectKind.CV_NOTIFY,
            EffectKind.CV_BROADCAST,
        ):
            ok = True
        elif effect.target is None:
            ok = True
        else:
            ok = effect.target.is_enabled(effect, thread)
        if ok:
            enabled.append(thread.tid)
    return tuple(sorted(enabled, key=lambda tid: tid.path))


def notify_unlocked():
    """Notifies issued without holding the mutex, by a child the first
    root spawns.  A woken waiter can run at once, though no step
    touched the mutex it now waits on, and the child sorts before the
    later roots (no built-in program has either shape)."""

    def setup(w):
        mutex = w.mutex("m")
        cv = w.condvar("cv")
        flag = w.atomic("flag", 0)

        def waiter():
            yield mutex.acquire()
            while (yield flag.read()) == 0:
                yield cv.wait(mutex)
            yield mutex.release()

        def notifier():
            yield flag.write(1)
            yield cv.notify()
            yield cv.broadcast()

        def main():
            child = yield spawn(notifier)
            yield join(child)

        return {"main": main, "waiter": waiter, "waiter2": waiter}

    return Program("notify-unlocked", setup)


def programs():
    """(name, factory) of every program the digest covers, in a fixed order."""
    for spec, factory in sorted(builtin_registry().items()):
        yield spec, factory
    yield "notify-unlocked", notify_unlocked
    for module in INVIVO_EXAMPLES:
        yield module, importlib.import_module(module).make_program


def walk(program, seed):
    """Every observation of one seeded random schedule, as text lines,
    and the number of steps taken."""
    rng = random.Random(seed)
    execution = Execution(program, CONFIGS[seed % len(CONFIGS)])
    # Some seeds fingerprint only every few states, as a replay does.
    stride = 1 + seed % 3
    lines = []
    steps = 0
    for step in range(MAX_STEPS + 1):
        enabled = execution.enabled_threads()
        assert enabled == reference_enabled(execution), (program.name, seed, step)
        state = [tuple(tid.path for tid in enabled), execution.preemptions, execution.finished]
        if step % stride == 0 or not enabled:
            state.append(execution.fingerprint())
        lines.append(repr(tuple(state)))
        if not enabled or step == MAX_STEPS:
            break
        record = execution.execute(rng.choice(enabled))
        steps += 1
        lines.append(
            repr(
                (
                    record.index,
                    record.tid.path,
                    record.tid.label,
                    record.preempting,
                    tuple((kind.value, name) for kind, name in record.accesses),
                    record.preemptions,
                )
            )
        )
    bugs = sorted(
        repr(
            (
                bug.kind.value,
                tuple(tid.path for tid in bug.schedule),
                bug.preemptions,
                bug.step_index,
                bug.message,
            )
        )
        for bug in execution.bugs
    )
    lines.extend(bugs)
    lines.append(repr(execution.fingerprint()))
    return lines, steps


def test_engine_digest_is_pinned():
    digest = hashlib.sha256()
    steps = 0
    for name, factory in programs():
        for seed in SEEDS:
            lines, taken = walk(factory(), seed)
            steps += taken
            digest.update(f"{name}/{seed}\n".encode())
            digest.update("\n".join(lines).encode())
    assert steps > 10_000
    assert digest.hexdigest() == GOLDEN
