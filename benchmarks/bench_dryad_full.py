"""The paper's full five-thread Dryad driver, certified to bound 1.

Table 2 runs Dryad on a reduced driver (2 channel workers, 1 payload
item) for speed.  This benchmark runs the driver at the size of
Table 1 -- main, the application monitor and 3 channel workers, 2
payload items -- on the correct variant, checked with stateless ICB to
``max_bound=1``: the repo's largest single search, and the end-to-end
target of engine changes.

What it measures and asserts: wall time, executions, transitions and
distinct states, and that bound 1 is certified with no bug.  The
execution count is a pure function of the explored space, so it is
asserted exactly; a change to it is a change to the search.
"""

from __future__ import annotations

import time

from repro import ChessChecker
from repro.experiments.reporting import render_table
from repro.programs.dryad import dryad_channels

from _common import emit, run_once

#: Executions of ICB to bound 1 on the full correct driver.
EXECUTIONS = 29124


def run_full_driver():
    checker = ChessChecker(dryad_channels("correct"))
    start = time.perf_counter()
    result = checker.check(max_bound=1)
    return result, time.perf_counter() - start


def test_dryad_full_driver(benchmark):
    result, seconds = run_once(benchmark, run_full_driver)
    rows = [
        ["program", "dryad (correct), 3 workers, 2 items"],
        ["certified bound", result.certified_bound],
        ["executions", result.executions],
        ["transitions", result.transitions],
        ["distinct states", result.search.distinct_states],
        ["wall seconds", f"{seconds:.1f}"],
        ["executions/s", f"{result.executions / seconds:.0f}"],
    ]
    emit(
        "dryad_full",
        render_table(
            ["measure", "value"],
            rows,
            title="Full Dryad driver: stateless ICB to bound 1",
        ),
    )

    assert not result.found_bug
    assert result.certified_bound == 1
    assert result.executions == EXECUTIONS
