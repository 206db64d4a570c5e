"""The bytes a search writes to disk, pinned.

A witness trace, a checkpoint and a result-cache entry all outlive the
process that wrote them: a trace must still replay, a checkpoint still
resume and a cache entry still hit after an upgrade, and two daemons
of different builds share all three.  Each is pinned here as the
SHA-256 of the file an earlier version of the code wrote.  The test
calls only the public API (``TraceRecord.dumps``, ``check(checkpoint=,
cache=)``), so the same file passes against that version too.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import ChessChecker, ResultCache, SearchLimits
from repro.programs import resolve_builtin
from repro.trace.format import TraceRecord


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def witness_trace(tmp_path):
    program = resolve_builtin("wsq:pop-race")
    checker = ChessChecker(program)
    bug = checker.find_bug(max_bound=2)
    assert bug is not None
    record = TraceRecord.from_bug(program, checker.config, bug, spec="wsq:pop-race")
    return record.dumps().encode("utf-8")


def stopped_checkpoint(tmp_path, spec, executions, **options):
    path = tmp_path / "run.ckpt.json"
    result = ChessChecker(resolve_builtin(spec)).check(
        limits=SearchLimits(max_executions=executions),
        checkpoint=path,
        checkpoint_stride=1,
        **options,
    )
    assert not result.search.completed
    return path.read_bytes()


def cache_entry(tmp_path, spec, **options):
    cache = ResultCache(tmp_path / "cache")
    ChessChecker(resolve_builtin(spec)).check(cache=cache, **options)
    (entry,) = sorted((tmp_path / "cache").iterdir())
    return entry.read_bytes()


#: name -> (writer, SHA-256 of the bytes it wrote before the three
#: formats shared one codec).
CASES = {
    "trace:wsq:pop-race": (
        witness_trace,
        "c6765ade72ce9ab3d76600093a96263394359cb10f29b9c6faf4e971cbc80304",
    ),
    "checkpoint:dryad:refcount-race": (
        lambda tmp: stopped_checkpoint(tmp, "dryad:refcount-race", 100, max_bound=1),
        "4a2bbe4c07ffb319ab255a6d2adc621ffd323b50433d646635277f71c7f3548e",
    ),
    "checkpoint:toy:racy-counter:state_caching": (
        lambda tmp: stopped_checkpoint(
            tmp, "toy:racy-counter", 2, state_caching=True
        ),
        "7d3426cec3ae0a92d752d557dc0458e7eb5ae5683300baaa75c2d166ab30cfbf",
    ),
    "cache:bluetooth:fixed@1": (
        lambda tmp: cache_entry(tmp, "bluetooth:fixed", max_bound=1),
        "c19d7bc377ec0ef14d11ce3dc69ec19437109f61a2170956b89fa52823e43024",
    ),
    "cache:wsq:pop-race:first-bug": (
        lambda tmp: cache_entry(
            tmp, "wsq:pop-race", limits=SearchLimits(stop_on_first_bug=True)
        ),
        "f356bc16d78c7c7efc554887fb800a18c3488777324b9b4ccc1496a30ae515af",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_persisted_bytes_are_unchanged(tmp_path, name):
    writer, digest = CASES[name]
    assert sha256(writer(tmp_path)) == digest
