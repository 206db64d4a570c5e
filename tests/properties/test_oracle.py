"""Differential oracle: ICB's verdict equals brute-force enumeration.

For generated programs with seeded assertion failures and lock-order
deadlocks (``program_gen`` with ``bugs=True``), ``theory.enumeration``
lists every maximal execution.  That is the ground truth: per bug
signature (kind, message, thread), the minimal preemption count over
all buggy executions, and the canonical minimal witness.  Serial ICB,
stateless (CHESS) and with the work-item table (``state_caching``),
must report exactly those signatures, each at its brute-force minimal
preemption count -- the paper's minimality guarantee.  Stateless ICB
explores every execution, so it must also keep the canonical witness.

The enumeration itself reaches states through ``ProgramStateSpace``,
which restores or replays them; every enumerated schedule is therefore
re-checked with a fresh ``Execution.replay``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings

from repro import ChessChecker, Execution
from repro.search.strategy import _witness_key
from repro.theory.enumeration import enumerate_executions

from .profiles import examples
from .program_gen import build_program, program_shapes

ORACLE = settings(
    max_examples=examples(15),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: Programs with more maximal executions than this are skipped.
LIMIT = 2_000


def _bug_view(bug):
    return (bug.kind, bug.message, bug.thread, bug.schedule, bug.preemptions, bug.step_index)


def brute_force(program):
    """Bug signature -> canonical minimal witness over every execution,
    and the number of executions (``LIMIT`` when there are more)."""
    truth = {}
    count = 0
    for schedule, preemptions, bugs in enumerate_executions(program, limit=LIMIT):
        count += 1
        replay = Execution.replay(program, schedule)
        assert replay.finished, schedule
        assert replay.preemptions == preemptions, schedule
        assert [_bug_view(b) for b in replay.bugs] == [_bug_view(b) for b in bugs]
        for bug in bugs:
            known = truth.get(bug.signature)
            if known is None or _witness_key(bug) < _witness_key(known):
                truth[bug.signature] = bug
    return truth, count


@ORACLE
@given(program_shapes(max_threads=3, max_ops=2, bugs=True))
def test_icb_reports_the_brute_force_bugs(shape):
    program = build_program(shape)
    truth, count = brute_force(program)
    assume(count < LIMIT)
    for caching in (False, True):
        result = ChessChecker(program).check(state_caching=caching)
        assert result.search.completed
        found = {bug.signature: bug for bug in result.bugs}
        assert set(found) == set(truth), caching
        for signature, bug in found.items():
            assert bug.preemptions == truth[signature].preemptions, (caching, signature)
            if not caching:
                assert bug.identity == truth[signature].identity, signature


def test_the_generator_seeds_both_bug_kinds():
    """The oracle is not vacuous: a fixed shape has both defects."""
    from repro.errors import BugKind

    from .program_gen import CheckedRead, LockBlock, NestedLocks, ProgramShape

    shape = ProgramShape(
        n_vars=2,
        n_atomics=0,
        threads=(
            (CheckedRead(0), NestedLocks(0, 1)),
            (LockBlock(0, True), NestedLocks(1, 0)),
        ),
    )
    truth, count = brute_force(build_program(shape))
    assert count < LIMIT
    kinds = {signature[0] for signature in truth}
    assert kinds == {BugKind.ASSERTION, BugKind.DEADLOCK}
    assert {bug.preemptions for bug in truth.values()} == {1}
