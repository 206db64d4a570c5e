"""In-vivo static analysis: soundness, lint, loud TOP fallback.

:mod:`repro.analysis.summary` abstractly interprets the *source* of
real thread callables.  These tests pin its contracts over every
``examples/invivo`` program (buggy and fixed variants):

* soundness -- every shared access observed dynamically is covered by
  the static summary (the only evidence that the walk reaches every
  path a thread can take);
* the hidden-state lint -- plain attributes written by more than one
  checked thread are flagged with fingerprints stable across fresh
  interpreters; and
* no silent TOP -- when a body defeats the analyzer, the summary
  records *why* and ``repro lint`` reports it as an ``incomplete``
  finding.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import subprocess
import sys
from typing import Optional, Set, Tuple

import pytest

from repro import (
    ChessChecker,
    EffectKind,
    ExecutionConfig,
    Monitor,
    SearchLimits,
    monitor_factory,
)
from repro.analysis import analyze_program, lint_program
from repro.invivo import InvivoProgram

EXAMPLES = [
    "examples.invivo.bounded_queue",
    "examples.invivo.lazy_singleton",
    "examples.invivo.barrier_misuse",
    "examples.invivo.hidden_state",
]

VARIANTS = [
    (name, factory)
    for name in EXAMPLES
    for factory in ("make_program", "make_fixed")
]

VARIANT_IDS = [f"{name.rsplit('.', 1)[1]}:{factory}" for name, factory in VARIANTS]

HIDDEN_STATE = "examples.invivo.hidden_state"


def build(name: str, factory: str) -> InvivoProgram:
    return getattr(importlib.import_module(name), factory)()


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


class TestSoundness:
    """The static facts bound the dynamic behaviour (cross-validation)."""

    @pytest.mark.parametrize("name,factory", VARIANTS, ids=VARIANT_IDS)
    def test_dynamic_accesses_are_statically_covered(self, name, factory):
        summary = analyze_program(build(name, factory))
        assert not summary.any_top, [
            (t.label, t.top_reason) for t in summary.threads if t.top
        ]

        AccessCollector.seen = set()
        config = ExecutionConfig(monitors=(monitor_factory(AccessCollector),))
        ChessChecker(build(name, factory), config).check(
            max_bound=1, limits=SearchLimits(max_executions=200)
        )

        # Programs whose synchronization is entirely monkeypatched
        # (anonymous adapters) can observe zero *named* accesses; the
        # superset obligation still holds for whatever was seen.
        missed = [
            (kind, var)
            for kind, var in sorted(AccessCollector.seen)
            if not summary.covers(EffectKind(kind), var)
        ]
        assert not missed, f"dynamic accesses missing from summary: {missed}"


class TestHiddenStateLint:
    """Plain attributes shared across checked threads are flagged."""

    def test_seeded_race_is_flagged(self):
        summary = analyze_program(build(HIDDEN_STATE, "make_program"))
        findings = [
            f for f in lint_program(summary) if f.code == "hidden-state"
        ]
        assert [f.subject for f in findings] == ["Stats.total"]
        assert (
            findings[0].fingerprint
            == "invivo-hidden-state:hidden-state:Stats.total"
        )

    def test_fixed_variant_lints_clean(self):
        summary = analyze_program(build(HIDDEN_STATE, "make_fixed"))
        assert lint_program(summary) == ()

    def test_lazy_singleton_registry_is_flagged(self):
        # The double-checked-locking example keeps its bookkeeping in
        # plain attributes; both variants are (correctly) flagged, and
        # the CI baseline documents them as known findings.
        summary = analyze_program(
            build("examples.invivo.lazy_singleton", "make_program")
        )
        subjects = {
            f.subject
            for f in lint_program(summary)
            if f.code == "hidden-state"
        }
        assert subjects == {"Registry._creations", "Registry._instance"}

    def test_single_writer_is_not_flagged(self):
        # One writing thread is fine: the lint fires only when more
        # than one checked thread instance writes the plain state.
        from repro.invivo import Event

        class Counter:
            def __init__(self) -> None:
                self.n = 0

        def setup():
            counter = Counter()
            done = Event(name="done")

            def writer():
                counter.n = 1
                done.set()

            def reader():
                done.wait()

            return {"writer": writer, "reader": reader}

        summary = analyze_program(InvivoProgram("invivo-single-writer", setup))
        assert not summary.any_top
        assert not [
            f for f in lint_program(summary) if f.code == "hidden-state"
        ]

    def test_fingerprints_are_stable_across_interpreters(self):
        # Baselines live in git, so fingerprints must not depend on
        # hash randomization or any other per-process state.
        root = pathlib.Path(__file__).resolve().parents[2]
        code = (
            "from examples.invivo.hidden_state import make_program\n"
            "from repro.analysis import analyze_program, lint_program\n"
            "for f in lint_program(analyze_program(make_program())):\n"
            "    print(f.fingerprint)\n"
        )
        outputs = []
        for seed in ("0", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = os.pathsep.join(
                [str(root / "src"), str(root)]
            )
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                cwd=str(root),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert "invivo-hidden-state:hidden-state:Stats.total" in outputs[0]


def opaque_program() -> InvivoProgram:
    """A thread that builds an object mid-run: the analyzer gives up."""

    class Box:
        def __init__(self) -> None:
            self.value = 0

    def setup():
        def builder():
            Box()

        return {"builder": builder}

    return InvivoProgram("invivo-opaque", setup)


class TestTopFallback:
    """Unanalyzable bodies degrade loudly, never silently."""

    def test_top_records_a_reason(self, capsys):
        summary = analyze_program(opaque_program())
        (thread,) = summary.threads
        assert thread.top
        assert "construction" in thread.top_reason
        (finding,) = lint_program(summary)
        assert (finding.code, finding.subject) == ("incomplete", "builder")
        assert thread.top_reason in finding.message

        # `repro lint --module` alone is the gate: the TOP thread fails it.
        from repro.cli import main

        spec = f"{__name__}:opaque_program"
        assert main(["lint", "--module", spec]) == 1
        out = capsys.readouterr().out
        assert (
            "[incomplete] thread 'builder' could not be analyzed: "
            f"{thread.top_reason}"
        ) in out
