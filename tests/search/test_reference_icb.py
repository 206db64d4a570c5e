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

Tier-1 runs the four :data:`SPECS`.  Under the ``ci`` Hypothesis
profile (``tests/properties/profiles.py``) the comparison also covers
every builtin and every ``examples/invivo`` program, buggy and fixed
(:data:`CI_SPECS`), each at the largest bound up to 2 whose search
fits in :data:`BUDGET` transitions; none is left out.  So the
``dryad`` family runs at bound 0 (``dryad:missing-handler`` at 2),
and ``ape``, ``ape:double-take``, ``ape:early-return``,
``ape:stats-race`` and ``filesystem`` at bound 1.
"""

from __future__ import annotations

from collections import Counter
import importlib
from typing import Dict, List, Optional, Tuple

import pytest

from repro import ChessChecker, Execution, SearchLimits
from repro.core.effects import EffectKind
from repro.core.objects import DIGEST_MASK, digest, encode
from repro.programs import builtin_registry

from ..properties.profiles import CI

#: ``(spec, max_bound)``: small enough to rebuild every state from scratch.
SPECS = (
    ("toy:dekker", 2),
    ("wsq:pop-race", 2),
    ("bluetooth", 1),
    ("ape:stats-race", 1),
)

#: Most transitions a ci-profile case may take: rebuilding every state
#: by a full replay costs a millisecond or more per transition.
BUDGET = 25_000

#: ``(spec, max_bound)`` beyond :data:`SPECS`, run under the ``ci``
#: profile only; ``module:factory`` specs name ``examples/invivo``
#: programs.
CI_SPECS = (
    ("ape", 1),
    ("ape:double-take", 1),
    ("ape:early-return", 1),
    ("ape:init-race", 2),
    ("bluetooth:fixed", 2),
    ("dryad", 0),
    ("dryad:close-sem-race", 0),
    ("dryad:double-free", 0),
    ("dryad:missing-handler", 2),
    ("dryad:refcount-race", 0),
    ("dryad:use-after-free", 0),
    ("filesystem", 1),
    ("toy:atomic-counter", 2),
    ("toy:chain", 2),
    ("toy:deadlock", 2),
    ("toy:peterson", 2),
    ("toy:racy-counter", 2),
    ("toy:stats-assert", 2),
    ("toy:stats-deadlock", 2),
    ("toy:stats-race", 2),
    ("toy:uaf", 2),
    ("wsq", 2),
    ("wsq:pop-lost-restore", 2),
    ("wsq:steal-stale-tail", 2),
) + tuple(
    (f"examples.invivo.{module}:{factory}", 2)
    for module in ("bounded_queue", "lazy_singleton", "barrier_misuse", "hidden_state")
    for factory in ("make_program", "make_fixed")
)


def factory_of(spec: str):
    if spec.startswith("examples."):
        module, name = spec.split(":")
        return getattr(importlib.import_module(module), name)
    return builtin_registry()[spec]


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


def test_ci_specs_cover_every_builtin():
    assert {spec for spec, _ in SPECS + CI_SPECS} >= set(builtin_registry())


@pytest.mark.parametrize("spec,max_bound", SPECS)
def test_chess_checker_matches_reference_algorithm_1(spec, max_bound):
    assert_matches_reference(factory_of(spec), max_bound)


@pytest.mark.skipif(not CI, reason="a full replay per state; ci profile only")
@pytest.mark.parametrize("spec,max_bound", CI_SPECS)
def test_every_program_matches_reference_algorithm_1(spec, max_bound):
    factory = factory_of(spec)
    if max_bound < 2:
        # The largest bound that fits the budget: one more does not.
        deeper = ChessChecker(factory()).check(
            max_bound=max_bound + 1, limits=SearchLimits(max_transitions=BUDGET)
        )
        assert not deeper.search.completed
    assert assert_matches_reference(factory, max_bound) <= BUDGET


def assert_matches_reference(factory, max_bound) -> int:
    """Compare the checker with the reference; returns the transitions."""
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
    return reference.transitions
