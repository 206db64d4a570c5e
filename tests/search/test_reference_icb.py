"""A reference Algorithm 1 as the oracle for ``ChessChecker.check``.

The differential oracle in ``tests/properties`` compares the checker
with brute-force enumeration, which only reaches generated programs of
a few steps.  This test compares it, on built-in programs three of
which are Table-2 rows, with Algorithm 1 of the paper written out as
plainly as possible:

* every state is rebuilt by a fresh ``Execution.replay`` of its
  schedule -- no live execution is extended or rewound;
* every fingerprint is computed from scratch, as the sum of the
  digests of each object's ``(name, snapshot())`` and each thread's
  ``(tid, local_fingerprint())``, and the enabled set is evaluated
  from scratch from each thread's pending effect; both are checked
  against the engine's incremental values;
* there is no work-item table.

Both searches explore each bound to completion (no budget stop, whose
cut depends on exploration order), so they must agree on executions
per bound, transitions, distinct states, the kept witness of every bug
and its preemptions, and the certified bound.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

import pytest

from repro import ChessChecker, Execution
from repro.core.effects import EffectKind
from repro.core.objects import DIGEST_MASK, digest, encode
from repro.programs import builtin_registry

#: ``(spec, max_bound)``: small enough to rebuild every state from scratch.
SPECS = (
    ("toy:dekker", 2),
    ("wsq:pop-race", 2),
    ("bluetooth", 1),
    ("ape:stats-race", 1),
)


def scratch_fingerprint(execution: Execution) -> int:
    """The state's fingerprint with no cached or running digest."""
    total = sum(
        digest(encode((obj.name, obj.snapshot()))) for obj in execution.world.objects
    )
    total += sum(
        digest(encode((thread.tid, thread.local_fingerprint())))
        for thread in execution.threads.values()
    )
    return total & DIGEST_MASK


def scratch_enabled(execution: Execution) -> Tuple:
    """enabled(alpha), evaluated from every thread's pending effect."""
    if execution.failed:
        return ()
    enabled = []
    for thread in sorted(execution.threads.values(), key=lambda t: t.tid):
        effect = thread.pending
        if effect is None:
            continue
        if effect.kind is EffectKind.START:
            ok = thread.created_event.is_set
        elif effect.kind is EffectKind.JOIN:
            ok = execution.threads[effect.args[0].tid].done_event.is_set
        elif effect.kind.engine or effect.target is None:
            ok = True
        else:
            ok = effect.target.is_enabled(effect, thread)
        if ok:
            enabled.append(thread.tid)
    return tuple(enabled)


class ReferenceICB:
    """Algorithm 1: ``Search`` recurses within the bound and defers
    every preempting choice to the next bound's queue."""

    def __init__(self, program, max_bound: int) -> None:
        self.program = program
        self.max_bound = max_bound
        self.executions: List[int] = []
        self.transitions = 0
        #: fingerprint -> fewest preemptions it was reached with.
        self.states: Dict[int, int] = {}
        #: bug signature -> minimal witness (fewest preemptions, then
        #: shortest, then smallest schedule).
        self.bugs: Dict[tuple, object] = {}
        self.certified: Optional[int] = None

    def state(self, schedule):
        execution = Execution.replay(self.program, schedule)
        enabled = scratch_enabled(execution)
        fingerprint = scratch_fingerprint(execution)
        assert execution.enabled_threads() == enabled, schedule
        assert execution.fingerprint() == fingerprint, schedule
        for bug in execution.bugs:
            key = (bug.preemptions, len(bug.schedule), [t.path for t in bug.schedule])
            known = self.bugs.get(bug.signature)
            if known is None or key < known[0]:
                self.bugs[bug.signature] = (key, bug)
        return execution, enabled, fingerprint

    def run(self) -> "ReferenceICB":
        _, enabled, fingerprint = self.state(())
        self.states[fingerprint] = 0
        work = [((), tid) for tid in enabled]
        for bound in range(self.max_bound + 1):
            self.executions.append(0)
            deferred: List[tuple] = []
            for schedule, tid in work:
                self.search(schedule, tid, deferred)
            self.certified = bound
            if not deferred:
                break
            work = deferred
        return self

    def search(self, schedule, tid, deferred) -> None:
        successor = schedule + (tid,)
        execution, enabled, fingerprint = self.state(successor)
        self.transitions += 1
        known = self.states.get(fingerprint)
        if known is None or execution.preemptions < known:
            self.states[fingerprint] = execution.preemptions
        if execution.finished:
            self.executions[-1] += 1
        elif tid in enabled:
            self.search(successor, tid, deferred)
            deferred.extend((successor, other) for other in enabled if other != tid)
        else:
            for other in enabled:
                self.search(successor, other, deferred)


def witnesses(bugs):
    return Counter((bug.identity, bug.preemptions) for bug in bugs)


@pytest.mark.parametrize("spec,max_bound", SPECS)
def test_chess_checker_matches_reference_algorithm_1(spec, max_bound):
    factory = builtin_registry()[spec]
    reference = ReferenceICB(factory(), max_bound).run()
    per_bound = [
        ChessChecker(factory()).check(max_bound=bound).executions
        for bound in range(reference.certified + 1)
    ]
    result = ChessChecker(factory()).check(max_bound=max_bound)
    assert result.search.completed
    assert per_bound[-1] == result.executions
    cumulative = [sum(reference.executions[: bound + 1]) for bound in range(len(per_bound))]
    assert per_bound == cumulative
    assert result.search.transitions == reference.transitions
    assert result.search.distinct_states == len(reference.states)
    assert result.search.context.states == reference.states
    assert witnesses(result.bugs) == witnesses(bug for _, bug in reference.bugs.values())
    assert result.certified_bound == reference.certified
