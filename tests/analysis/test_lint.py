"""The hidden-state lint's findings and the baseline file format."""

from __future__ import annotations

import pytest

from repro.analysis import format_baseline, lint_program, load_baseline
from repro.analysis.lint import watch_program
from repro.invivo import InvivoProgram
from repro.programs import toy

from examples.invivo import hidden_state, lazy_singleton

from . import fixtures


def subjects(program):
    return [(f.code, f.subject) for f in lint_program(program)]


class TestFindings:
    def test_clean_program_has_no_findings(self):
        assert lint_program(hidden_state.make_fixed()) == ()

    def test_exec_compiled_bodies_sharing_only_adapters_lint_clean(self):
        # No source file is needed: the watcher sees what runs.  These
        # bodies share a Shared cell only, which the checker sees.
        assert lint_program(fixtures.opaque_program()) == ()

    def test_exec_compiled_bodies_writing_plain_state_are_flagged(self):
        assert subjects(fixtures.opaque_plain_program()) == [
            ("hidden-state", "Box.value")
        ]

    def test_module_global(self):
        assert subjects(fixtures.global_program()) == [
            ("hidden-state", "tests.analysis.fixtures.hits")
        ]

    @pytest.mark.parametrize(
        "factory", [fixtures.partial_program, fixtures.callable_object_program]
    )
    def test_partial_and_callable_object_bodies_are_read(self, factory):
        assert subjects(factory()) == [("hidden-state", "tests.analysis.fixtures.hits")]

    def test_class_attribute(self):
        assert subjects(fixtures.class_attribute_program()) == [
            ("hidden-state", "Tally.count")
        ]

    def test_closure_variable(self):
        # Named after the function found closing over it.
        assert subjects(fixtures.nonlocal_program()) == [
            ("hidden-state", "nonlocal_program.<locals>.setup.<locals>.bump.count")
        ]

    def test_in_place_append_is_charged_to_the_owning_attribute(self):
        assert subjects(fixtures.append_program()) == [
            ("hidden-state", "Box.entries")
        ]

    def test_publishing_a_new_object_is_one_write(self):
        # The slot that comes to point at a new object is written; the
        # new object's own initialisation is not a write to shared state.
        assert subjects(fixtures.publish_program()) == [
            ("hidden-state", "Box.child")
        ]

    def test_a_write_in_setup_is_charged_to_no_thread(self):
        writers = watch_program(fixtures.setup_write_program())
        assert "Box.value" not in writers
        assert lint_program(fixtures.setup_write_program()) == ()

    def test_the_message_names_the_writers_and_the_bound(self):
        (finding,) = lint_program(hidden_state.make_program())
        assert "'worker-1', 'worker-2'" in finding.message
        assert "preemption bound 1" in finding.message

    def test_host_exceptions_do_not_defeat_the_lint(self):
        # A thread that dies of an exception fails its execution; the
        # writes it made before are still charged, and the search goes
        # on to the executions where the other thread runs first.
        def setup():
            box = fixtures.Box()
            table: dict = {}

            def worker():
                box.value = 1
                table["k"] += 1  # raises at run time: KeyError

            return {"t0": worker, "t1": worker}

        assert subjects(InvivoProgram("hostile", setup)) == [
            ("hidden-state", "Box.value")
        ]

    def test_dsl_programs_are_refused(self):
        # Effect programs keep all their state in the engine's shared
        # objects; the lint reads in-vivo programs only.
        with pytest.raises(TypeError, match="in-vivo programs only"):
            lint_program(toy.lock_order_deadlock())


class TestBaseline:
    def test_round_trip(self):
        findings = lint_program(hidden_state.make_program()) + lint_program(
            lazy_singleton.make_program()
        )
        text = format_baseline(findings)
        assert text.startswith("#")
        fingerprints = load_baseline(text)
        assert fingerprints == {f.fingerprint for f in findings}

    def test_load_skips_comments_and_blanks(self):
        parsed = load_baseline("# comment\n\nprog:code:subject\n")
        assert parsed == {"prog:code:subject"}

    def test_fingerprint_is_stable_identity(self):
        (finding,) = lint_program(hidden_state.make_program())
        assert finding.fingerprint == "invivo-hidden-state:hidden-state:Stats.total"
