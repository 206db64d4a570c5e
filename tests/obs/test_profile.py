"""Phase profiling: phases never overlap, and with the ``unaccounted``
row they account for the whole elapsed time of a serial run."""

from __future__ import annotations

import time

from repro import ChessChecker
from repro.obs import Instrumentation, Profiler
from repro.obs.instrument import _PhaseHook
from repro.obs.profile import UNACCOUNTED
from repro.programs.bluetooth import bluetooth


def test_nested_phase_is_billed_once():
    profiler = Profiler()
    outer = _PhaseHook("execute", None, profiler)
    inner = _PhaseHook("race-detect", None, profiler)
    t0 = outer.start()
    t1 = inner.start()
    time.sleep(0.05)
    inner.stop(t1)
    outer.stop(t0)
    assert profiler.seconds["race-detect"] >= 0.05
    assert profiler.seconds["execute"] < profiler.seconds["race-detect"]
    assert profiler.total == sum(profiler.seconds.values())


def test_phases_partition_elapsed_time():
    obs = Instrumentation(profiling=True)
    ChessChecker(bluetooth(buggy=True)).check(max_bound=1, obs=obs)
    snapshot = obs.snapshot()
    profile = snapshot.profile
    assert profile["replay"]["seconds"] > 0
    assert profile["replay"]["calls"] > 0
    billed = sum(cells["seconds"] for cells in profile.values())
    assert 0 < billed <= snapshot.elapsed

    table = Profiler.render(profile, snapshot.elapsed).splitlines()
    rows = {line.split()[0]: line.split() for line in table[2:]}
    assert set(rows) == set(profile) | {UNACCOUNTED}
    unaccounted = float(rows[UNACCOUNTED][1])
    assert abs(billed + unaccounted - snapshot.elapsed) < 1e-3
    shares = sum(float(row[-1].rstrip("%")) for row in rows.values())
    assert abs(shares - 100.0) < 0.1 * len(rows)
