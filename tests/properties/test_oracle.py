"""Differential oracle: ICB's verdict equals brute-force enumeration.

For generated programs with seeded assertion failures and lock-order
deadlocks (``program_gen`` with ``bugs=True``), ``theory.enumeration``
lists every maximal execution.  That is the ground truth: per bug
signature (kind, message, thread), the minimal preemption count over
all buggy executions, and the canonical minimal witness.  Every path
that produces a verdict must report exactly those signatures, each at
its brute-force minimal preemption count -- the paper's minimality
guarantee:

* serial ICB, stateless (CHESS) and with the work-item table
  (``state_caching``); stateless ICB explores every execution, so it
  must also keep the canonical witness;
* a second, identical check served from the result cache;
* a check stopped by an execution budget and resumed from its
  checkpoint;
* the parallel engine (``workers=2``): on a fixed two-bug shape in
  every run, and on generated shapes under the ``ci`` profile only,
  because each check starts worker processes;
* a cached check of the fixed shape in fresh interpreters under two
  different ``PYTHONHASHSEED`` values, whose cache entries must also
  be byte-identical.

The enumeration itself reaches states through ``ProgramStateSpace``,
which restores or replays them; every enumerated schedule is therefore
re-checked with a fresh ``Execution.replay``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro import ChessChecker, Execution, ResultCache, SearchLimits
from repro.search.strategy import _witness_key
from repro.theory.enumeration import enumerate_executions

from .profiles import CI, examples
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


def assert_verdict(result, truth, path, witness=False):
    """``result`` reports exactly ``truth``'s bug signatures, each at its
    minimal preemption count (and, with ``witness``, its witness)."""
    assert result.search.completed, path
    found = {bug.signature: bug for bug in result.bugs}
    assert set(found) == set(truth), path
    for signature, bug in found.items():
        assert bug.preemptions == truth[signature].preemptions, (path, signature)
        if witness:
            assert bug.identity == truth[signature].identity, (path, signature)


def served_from_cache(program, root):
    """The second of two identical cached checks: served, not searched."""
    cache = ResultCache(root)
    ChessChecker(program).check(cache=cache)
    served = ChessChecker(program).check(cache=cache)
    assert served.search.extras.get("cache_hit"), "second check was not served"
    return served


def resumed_after_budget(program, root):
    """A check stopped by an execution budget, then resumed to the end
    from its checkpoint."""
    path = pathlib.Path(root) / "oracle.ckpt.json"
    checker = ChessChecker(program)
    checker.check(
        limits=SearchLimits(max_executions=2), checkpoint=path, checkpoint_stride=1
    )
    return checker.check(checkpoint=path)


@ORACLE
@given(program_shapes(max_threads=3, max_ops=2, bugs=True))
def test_icb_reports_the_brute_force_bugs(shape):
    program = build_program(shape)
    truth, count = brute_force(program)
    assume(count < LIMIT)
    checker = ChessChecker(program)
    assert_verdict(checker.check(), truth, "stateless", witness=True)
    assert_verdict(checker.check(state_caching=True), truth, "state_caching")
    with tempfile.TemporaryDirectory() as root:
        assert_verdict(served_from_cache(program, root), truth, "cache")
    with tempfile.TemporaryDirectory() as root:
        assert_verdict(resumed_after_budget(program, root), truth, "resumed")


@pytest.mark.skipif(not CI, reason="starts worker processes; ci profile only")
@ORACLE
@given(program_shapes(max_threads=3, max_ops=2, bugs=True))
def test_parallel_icb_reports_the_brute_force_bugs(shape):
    program = build_program(shape)
    truth, count = brute_force(program)
    assume(count < LIMIT)
    assert_verdict(ChessChecker(program).check(workers=2), truth, "workers=2")


def two_bug_shape():
    """A fixed shape with an assertion failure and a lock-order
    deadlock, each needing one preemption."""
    from .program_gen import CheckedRead, LockBlock, NestedLocks, ProgramShape

    return ProgramShape(
        n_vars=2,
        n_atomics=0,
        threads=(
            (CheckedRead(0), NestedLocks(0, 1)),
            (LockBlock(0, True), NestedLocks(1, 0)),
        ),
    )


def test_the_generator_seeds_both_bug_kinds():
    """The oracle is not vacuous: a fixed shape has both defects."""
    from repro.errors import BugKind

    truth, count = brute_force(build_program(two_bug_shape()))
    assert count < LIMIT
    kinds = {signature[0] for signature in truth}
    assert kinds == {BugKind.ASSERTION, BugKind.DEADLOCK}
    assert {bug.preemptions for bug in truth.values()} == {1}


def test_parallel_icb_reports_the_fixed_shapes_bugs():
    program = build_program(two_bug_shape())
    truth, _ = brute_force(program)
    assert_verdict(ChessChecker(program).check(workers=2), truth, "workers=2")


#: A cached serial check of the fixed shape, run in a fresh interpreter:
#: its bugs, certified bound and cache entry, as JSON on stdout.
FRESH_CHECK = """
import json, pathlib, sys
from repro import ChessChecker, ResultCache
from tests.properties.program_gen import build_program
from tests.properties.test_oracle import two_bug_shape

root = pathlib.Path(sys.argv[1])
result = ChessChecker(build_program(two_bug_shape())).check(cache=ResultCache(root))
(entry,) = root.iterdir()
print(json.dumps({
    "bugs": sorted(
        [b.kind.value, b.message, str(b.thread), b.preemptions]
        for b in result.bugs
    ),
    "certified_bound": result.certified_bound,
    "entry": entry.read_text(),
}))
"""


def test_fresh_interpreters_under_different_hash_seeds_agree():
    program = build_program(two_bug_shape())
    truth, _ = brute_force(program)
    deepest = max(p for _, p, _ in enumerate_executions(program, limit=LIMIT))
    repo = pathlib.Path(__file__).resolve().parents[2]
    runs = []
    for seed in ("0", "1"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join([str(repo / "src"), str(repo)]),
        )
        with tempfile.TemporaryDirectory() as root:
            out = subprocess.run(
                [sys.executable, "-c", FRESH_CHECK, root],
                cwd=repo,
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        runs.append(json.loads(out))
    expected = sorted(
        [bug.kind.value, bug.message, str(bug.thread), bug.preemptions]
        for bug in truth.values()
    )
    for run in runs:
        assert run["bugs"] == expected
        # Stateless ICB runs every bound up to the deepest execution.
        assert run["certified_bound"] == deepest
    assert runs[0]["entry"] == runs[1]["entry"]
