"""The hidden-state lint over the ``examples/invivo`` programs.

:mod:`repro.analysis.lint` watches a bounded ICB search of an in-vivo
program and reports plain state that more than one checked thread
writes.  These tests pin what it reports on the examples (buggy and
fixed variants) and that its fingerprints are stable across fresh
interpreters.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import subprocess
import sys

from repro.analysis import lint_program
from repro.invivo import InvivoProgram

HIDDEN_STATE = "examples.invivo.hidden_state"


def build(name: str, factory: str) -> InvivoProgram:
    return getattr(importlib.import_module(name), factory)()


def builder_program() -> InvivoProgram:
    """A thread that builds an object mid-run and drops it."""

    class Box:
        def __init__(self) -> None:
            self.value = 0

    def setup():
        def builder():
            Box()

        return {"builder": builder}

    return InvivoProgram("invivo-builder", setup)


class TestHiddenStateLint:
    """Plain attributes shared across checked threads are flagged."""

    def test_seeded_race_is_flagged(self):
        findings = lint_program(build(HIDDEN_STATE, "make_program"))
        assert [(f.code, f.subject) for f in findings] == [
            ("hidden-state", "Stats.total")
        ]
        assert (
            findings[0].fingerprint
            == "invivo-hidden-state:hidden-state:Stats.total"
        )

    def test_fixed_variant_lints_clean(self):
        assert lint_program(build(HIDDEN_STATE, "make_fixed")) == ()

    def test_lazy_singleton_registry_is_flagged(self):
        # The double-checked-locking example keeps its bookkeeping in
        # plain attributes; both variants are (correctly) flagged, and
        # the CI baseline documents them as known findings.
        for factory in ("make_program", "make_fixed"):
            findings = lint_program(
                build("examples.invivo.lazy_singleton", factory)
            )
            assert {f.subject for f in findings} == {
                "Registry._creations",
                "Registry._instance",
            }

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

        assert lint_program(InvivoProgram("invivo-single-writer", setup)) == ()

    def test_an_object_built_mid_run_is_not_flagged(self, capsys):
        # Building an object writes only the new object's own state.
        assert lint_program(builder_program()) == ()

        from repro.cli import main

        assert main(["lint", "--module", f"{__name__}:builder_program"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_fingerprints_are_stable_across_interpreters(self):
        # Baselines live in git, so fingerprints must not depend on
        # hash randomization or any other per-process state.
        root = pathlib.Path(__file__).resolve().parents[2]
        code = (
            "from examples.invivo.hidden_state import make_program\n"
            "from repro.analysis import lint_program\n"
            "for f in lint_program(make_program()):\n"
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
