"""Unit tests for the per-thread access summaries."""

from __future__ import annotations

import pytest

from repro import EffectKind
from repro.analysis import analyze_program
from repro.invivo import InvivoProgram, Shared
from repro.programs import toy

from examples.invivo import hidden_state

from .fixtures import opaque_program, trivial_program


class TestCoverage:
    def test_covers_every_static_access(self):
        summary = analyze_program(hidden_state.make_fixed())
        assert summary.covers(EffectKind.WRITE, "stats.total")
        assert summary.covers(EffectKind.ATOMIC_ADD, "stats.scratch-1")
        assert not summary.covers(EffectKind.WRITE, "nonexistent")

    def test_dsl_programs_are_refused(self):
        # Lock cycles and races of effect programs are what the bounded
        # search reports itself; the analysis reads in-vivo code only.
        with pytest.raises(TypeError, match="in-vivo programs only"):
            analyze_program(toy.lock_order_deadlock())


class TestTopFallback:
    def test_opaque_bodies_become_top(self):
        summary = analyze_program(opaque_program())
        assert summary.any_top
        for thread in summary.threads:
            assert thread.top
            assert thread.top_reason

    def test_top_thread_covers_everything(self):
        summary = analyze_program(opaque_program())
        assert summary.covers(EffectKind.WRITE, "counter")
        assert summary.covers(EffectKind.READ, "anything-at-all")


class TestAnalyzerRobustness:
    def test_host_exceptions_do_not_defeat_the_analysis(self):
        # Abstract interpretation never runs the body, so host-level
        # failures (here a guaranteed KeyError) cannot crash it; the
        # accesses after the faulting statement are still collected.
        def setup():
            counter = Shared(0, name="counter")
            table = {}

            def worker():
                table["k"] += 1  # raises at run time: KeyError
                counter.set(1)

            return {"t": worker}

        summary = analyze_program(InvivoProgram("hostile", setup))
        thread = summary.threads[0]
        assert not thread.top
        assert thread.covers(EffectKind.WRITE, "counter")

    def test_internal_analyzer_errors_degrade_to_top(self, monkeypatch):
        # A bug in the analyzer itself must degrade to TOP -- never to
        # a silently wrong (unsound) summary.
        from repro.analysis import summary as summary_mod

        def explode(self, *args, **kwargs):
            raise RuntimeError("injected analyzer bug")

        monkeypatch.setattr(summary_mod._Interpreter, "_run_callable", explode)
        result = analyze_program(trivial_program())
        for thread in result.threads:
            assert thread.top
            assert "analyzer error" in thread.top_reason
            assert "injected analyzer bug" in thread.top_reason
