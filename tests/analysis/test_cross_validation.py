"""Cross-validation: the static results bound the dynamic behaviour.

Two soundness obligations, checked over *every* builtin program:

* every shared access observed dynamically is covered by the static
  access summary (``summary.covers``); and
* every data race the dynamic detector reports involves a variable
  that appears among the static race candidates (the candidate set is
  a superset of the real races).

These are the properties the lock graph, race candidates and lint
lean on, so they are exercised against the whole benchmark registry
rather than hand-picked examples.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import pytest

from repro import ChessChecker, EffectKind, ExecutionConfig, SearchLimits
from repro.analysis import analyze, analyze_program
from repro.monitors import Monitor, monitor_factory
from repro.programs import builtin_registry
from repro.races import race_variable_from_message

ALL_SPECS = sorted(builtin_registry())


def _is_checkable(name: Optional[str]) -> bool:
    """Real program variables only: skip internals and anonymous slots."""
    return name is not None and not name.startswith("$") and "#" not in name


class AccessCollector(Monitor):
    """Records every ``(kind, variable)`` pair any execution performs."""

    seen: Set[Tuple[str, str]] = set()

    def on_step(self, execution, record) -> None:
        for kind, name in record.accesses:
            if _is_checkable(name):
                AccessCollector.seen.add((kind.value, name))


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_dynamic_accesses_are_statically_covered(spec):
    program = builtin_registry()[spec]()
    summary = analyze_program(program)

    AccessCollector.seen = set()
    config = ExecutionConfig(monitors=(monitor_factory(AccessCollector),))
    checker = ChessChecker(program, config)
    checker.check(max_bound=1, limits=SearchLimits(max_executions=300))

    assert AccessCollector.seen, f"{spec}: no shared accesses observed"
    missed = [
        (kind, var)
        for kind, var in sorted(AccessCollector.seen)
        if not summary.covers(EffectKind(kind), var)
    ]
    assert not missed, f"{spec}: dynamic accesses missing from summary: {missed}"


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_dynamic_races_are_static_candidates(spec):
    program = builtin_registry()[spec]()
    analysis = analyze(program)
    candidate_vars = {c.variable for c in analysis.candidates}

    checker = ChessChecker(program)
    result = checker.check(max_bound=2, limits=SearchLimits(max_executions=2000))

    raced: List[str] = []
    for bug in result.bugs:
        variable = race_variable_from_message(bug.message)
        if variable is not None and _is_checkable(variable):
            raced.append(variable)

    missed = sorted(set(raced) - candidate_vars)
    assert not missed, f"{spec}: dynamic races not predicted statically: {missed}"
