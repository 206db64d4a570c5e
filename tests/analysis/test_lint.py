"""The in-vivo lint findings and the baseline file format."""

from __future__ import annotations

from repro.analysis import (
    analyze_program,
    format_baseline,
    lint_program,
    load_baseline,
)

from examples.invivo import hidden_state, lazy_singleton

from .fixtures import opaque_program


def findings_for(program):
    return lint_program(analyze_program(program))


class TestFindings:
    def test_clean_program_has_no_findings(self):
        assert findings_for(hidden_state.make_fixed()) == ()

    def test_each_top_thread_is_an_incomplete_finding(self):
        # A TOP thread's writes are unknown, so no hidden-state finding
        # is trusted beside it; the lint says what it could not read.
        findings = findings_for(opaque_program())
        assert [(f.code, f.subject) for f in findings] == [
            ("incomplete", "t0"),
            ("incomplete", "t1"),
        ]
        assert "no source" in findings[0].message


class TestBaseline:
    def test_round_trip(self):
        findings = findings_for(hidden_state.make_program()) + findings_for(
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
        (finding,) = findings_for(hidden_state.make_program())
        assert finding.fingerprint == "invivo-hidden-state:hidden-state:Stats.total"
