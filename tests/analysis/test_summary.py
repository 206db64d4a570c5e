"""Unit tests for the per-thread access summaries."""

from __future__ import annotations

from repro import EffectKind, Program
from repro.analysis import analyze_program
from repro.programs import toy, workstealqueue

from .fixtures import opaque_program


def summaries_by_label(summary):
    return {t.label: t for t in summary.threads}


class TestLockedCounter:
    def test_accesses_carry_must_locksets(self):
        summary = analyze_program(toy.locked_counter())
        worker = summaries_by_label(summary)["main/worker"]
        assert not worker.top
        data = [a for a in worker.accesses if a.variable == "counter"]
        assert data, "worker must touch the counter"
        assert all("lock" in a.must_locks for a in data)
        assert any(a.is_write for a in data)

    def test_no_exit_unreleased(self):
        summary = analyze_program(toy.locked_counter())
        for thread in summary.threads:
            assert not thread.exit_unreleased


def touching(summary, variable):
    """Runtime thread instances whose summaries touch ``variable``
    (a multi-instance summary counts twice)."""
    return sum(
        2 if t.multi_instance else 1 for t in summary.threads if variable in t.touched
    )


class TestProvenLocal:
    """Which thread instances touch which variable: the facts behind
    the self-race candidates and the hidden-state lint."""

    def test_chain_counters_are_local(self):
        summary = analyze_program(toy.chain_program(n_threads=2, steps=2))
        assert not summary.any_top
        assert touching(summary, "c0") == touching(summary, "c1") == 1

    def test_shared_variable_is_not_local(self):
        summary = analyze_program(toy.racy_counter())
        assert touching(summary, "counter") > 1

    def test_spawned_bodies_count_as_multiple_instances(self):
        # atomic_counter_assert spawns its workers from one function:
        # the analyzer folds them into one multi-instance summary.
        summary = analyze_program(toy.atomic_counter_assert())
        assert any(
            t.multi_instance and "counter" in t.touched for t in summary.threads
        )
        assert touching(summary, "counter") > 1


class TestCoverage:
    def test_covers_every_static_access(self):
        summary = analyze_program(toy.stats_race())
        assert summary.covers(EffectKind.WRITE, "stat")
        assert summary.covers(EffectKind.ATOMIC_ADD, "ops0")
        assert not summary.covers(EffectKind.WRITE, "nonexistent")

    def test_workstealqueue_analyzes_without_top(self):
        # The hardest builtin: generator methods on a shared object
        # invoked via `yield from`, loops, and heap fields.
        summary = analyze_program(workstealqueue.work_steal_queue())
        assert not summary.any_top


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
        def setup(w):
            counter = w.var("counter", 0)
            table = {}

            def worker():
                table["k"] += 1  # raises at run time: KeyError
                yield counter.write(1)

            return {"t": worker}

        summary = analyze_program(Program("hostile", setup))
        thread = summary.threads[0]
        assert not thread.top
        assert any(a.variable == "counter" and a.is_write for a in thread.accesses)

    def test_internal_analyzer_errors_degrade_to_top(self, monkeypatch):
        # A bug in the analyzer itself must degrade to TOP -- never to
        # a silently wrong (unsound) summary.
        from repro.analysis import summary as summary_mod

        def explode(self, *args, **kwargs):
            raise RuntimeError("injected analyzer bug")

        monkeypatch.setattr(summary_mod._Interpreter, "_run_callable", explode)
        result = analyze_program(Program("victim", _trivial_setup))
        for thread in result.threads:
            assert thread.top
            assert "analyzer error" in thread.top_reason
            assert "injected analyzer bug" in thread.top_reason


def _trivial_setup(w):
    value = w.var("value", 0)

    def worker():
        yield value.write(1)

    return {"t": worker}
