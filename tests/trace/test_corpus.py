"""The directory-of-traces regression corpus."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.execution import ExecutionConfig
from repro.core.program import Program
from repro.core.thread import ThreadId
from repro.errors import BugKind, ReproError
from repro.trace.corpus import TraceCorpus, resolve_trace_program
from repro.trace.format import ExpectedBug, ProgramFingerprint, TraceRecord

from ._family import family


class TestSaveAndEnumerate:
    def test_save_is_content_addressed(self, base_trace, tmp_path):
        corpus = TraceCorpus(tmp_path / "corpus")
        first = corpus.save(base_trace)
        second = corpus.save(base_trace)
        assert first == second
        assert corpus.paths() == [first]
        assert len(corpus) == 1
        assert corpus.load_all() == [base_trace]

    def test_missing_directory_is_empty(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "never-created")
        assert corpus.paths() == []
        assert len(corpus) == 0
        assert corpus.run().ok  # vacuously; the CLI refuses empty corpora

    def test_only_trace_files_are_picked_up(self, base_trace, tmp_path):
        (tmp_path / "notes.txt").write_text("not a trace")
        (tmp_path / "data.json").write_text("{}")
        corpus = TraceCorpus(tmp_path)
        saved = corpus.save(base_trace)
        assert corpus.paths() == [saved]


class TestRun:
    def test_reproduced_corpus_is_ok(self, base_trace, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.save(base_trace)
        report = corpus.run(resolve=lambda trace: family("base"))
        assert report.ok
        assert report.failures == []
        assert "REPRODUCED" in report.summary()
        assert "1 trace(s), 0 failure(s)" in report.summary()

    def test_vanished_bug_fails_the_run(self, base_trace, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.save(base_trace)
        report = corpus.run(resolve=lambda trace: family("fixed"))
        assert not report.ok
        assert len(report.failures) == 1
        assert "VANISHED" in report.summary()

    def test_mismatch_detail_is_shown(self, base_trace, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.save(base_trace)
        report = corpus.run(resolve=lambda trace: family("locked"))
        assert not report.ok
        assert "schedule mismatch (not-enabled)" in report.summary()

    def test_malformed_file_is_an_error_entry(self, tmp_path):
        (tmp_path / "junk.trace.json").write_text("{broken")
        report = TraceCorpus(tmp_path).run()
        assert not report.ok
        assert report.entries[0].error is not None
        assert "ERROR" in report.summary()

    def test_unresolvable_program_is_an_error_entry(self, base_trace, tmp_path):
        # ``trace-family`` records no spec and is not a built-in.
        corpus = TraceCorpus(tmp_path)
        corpus.save(base_trace)
        report = corpus.run()
        assert not report.ok
        assert "cannot resolve" in report.summary()

    def test_one_bad_trace_does_not_abort_the_rest(self, base_trace, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.save(base_trace)
        (tmp_path / "junk.trace.json").write_text("{broken")
        report = corpus.run(resolve=lambda trace: family("base"))
        assert len(report.entries) == 2
        assert len(report.failures) == 1


def synthetic_trace(spec=None, name="synthetic"):
    return TraceRecord(
        program=ProgramFingerprint(name=name, structure="0" * 16),
        config=ExecutionConfig(),
        schedule=(ThreadId((0,)),),
        preemptions=0,
        bug=ExpectedBug(kind=BugKind.ASSERTION, message="x", thread=None, step_index=0),
        spec=spec,
    )


class TestResolve:
    def test_builtin_spec(self):
        program = resolve_trace_program(synthetic_trace(spec="bluetooth"))
        assert isinstance(program, Program)

    def test_module_factory_spec(self):
        trace = synthetic_trace(spec="repro.programs.toy:lock_order_deadlock")
        assert isinstance(resolve_trace_program(trace), Program)

    def test_bad_factory_spec(self):
        trace = synthetic_trace(spec="repro.programs.toy:no_such_factory")
        with pytest.raises(ReproError, match="cannot rebuild"):
            resolve_trace_program(trace)

    def test_non_program_factory_spec(self):
        trace = synthetic_trace(spec="concurrent.futures:Future")
        with pytest.raises(ReproError, match="did not produce a Program"):
            resolve_trace_program(trace)

    def test_builtin_name_fallback(self):
        from repro.programs import resolve_builtin

        bluetooth = resolve_builtin("bluetooth")
        trace = dataclasses.replace(
            synthetic_trace(), program=ProgramFingerprint.of(bluetooth)
        )
        resolved = resolve_trace_program(trace)
        assert resolved.name == bluetooth.name

    def test_unresolvable_raises(self, base_trace):
        with pytest.raises(ReproError, match="cannot resolve"):
            resolve_trace_program(base_trace)


class TestWitnessesOfOneCheck:
    @pytest.mark.parametrize("spec", ["wsq:pop-race", "bluetooth"])
    def test_serial_and_parallel_runs_write_the_same_files(self, spec, tmp_path):
        from repro import ChessChecker
        from repro.programs import resolve_builtin

        written = {}
        for workers in (None, 2):
            traces = tmp_path / f"workers-{workers}"
            ChessChecker(resolve_builtin(spec)).check(
                max_bound=2, workers=workers, trace_dir=traces, trace_spec=spec
            )
            corpus = TraceCorpus(traces)
            assert corpus.run().ok
            written[workers] = [path.name for path in corpus.paths()]
        assert written[None] and written[None] == written[2]
