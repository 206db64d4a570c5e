"""The command-line interface."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import main


class TestList:
    def test_lists_builtins(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("bluetooth", "wsq", "dryad:use-after-free", "toy:deadlock"):
            assert name in out


class TestCheck:
    def test_clean_program_exits_zero(self, capsys):
        code = main(["check", "toy:dekker", "--bound", "1"])
        assert code == 0
        assert "0 bug(s)" in capsys.readouterr().out

    def test_buggy_program_exits_nonzero(self, capsys):
        code = main(["check", "toy:atomic-counter", "--stop-on-first-bug"])
        assert code == 1
        assert "lost update" in capsys.readouterr().out

    def test_bound_guarantee_printed(self, capsys):
        main(["check", "toy:dekker", "--bound", "1"])
        assert "at most 1 preemption" in capsys.readouterr().out

    def test_strategy_selection(self, capsys):
        code = main(
            ["check", "toy:racy-counter", "--strategy", "random",
             "--executions", "50", "--stop-on-first-bug"]
        )
        assert code == 1

    def test_policy_and_race_flags(self, capsys):
        code = main(
            ["check", "toy:racy-counter", "--no-race-detection", "--bound", "0"]
        )
        assert code == 0  # without race detection nothing fails at bound 0

    def test_unknown_program_errors(self):
        with pytest.raises(SystemExit):
            main(["check", "no-such-program"])

    def test_external_factory(self, capsys):
        code = main(
            ["check", "repro.programs.toy:lock_order_deadlock",
             "--stop-on-first-bug"]
        )
        assert code == 1
        assert "deadlock" in capsys.readouterr().out


class TestExplain:
    def test_explain_prints_trace(self, capsys):
        code = main(["explain", "toy:atomic-counter"])
        assert code == 1
        out = capsys.readouterr().out
        assert "preempting steps marked *" in out
        assert "preemptions: 1" in out

    def test_explain_clean_program(self, capsys):
        code = main(["explain", "toy:dekker", "--bound", "1"])
        assert code == 0
        assert "no bug found" in capsys.readouterr().out

    def test_explain_with_workers_replays_merged_witness(self, capsys):
        # Under --workers the witness comes back from worker processes;
        # explain replays it through the trace subsystem, never by
        # re-searching serially.
        code = main(["explain", "toy:atomic-counter", "--workers", "2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "replay: reproduced" in out
        assert "preempting steps marked *" in out

    def test_explain_persists_trace_dir(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        code = main(["explain", "toy:atomic-counter", "--trace-dir", str(corpus)])
        assert code == 1
        assert list(corpus.glob("*.trace.json"))


class TestTrace:
    def save(self, tmp_path, capsys):
        out = tmp_path / "counter.trace.json"
        assert main(["trace", "save", "toy:atomic-counter", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_save_reports_summary(self, tmp_path, capsys):
        out = tmp_path / "counter.trace.json"
        assert main(["trace", "save", "toy:atomic-counter", str(out)]) == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "saved" in printed
        assert "1 preemption(s)" in printed

    def test_save_without_bug_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "clean.trace.json"
        code = main(["trace", "save", "toy:dekker", "--bound", "1", str(out)])
        assert code == 1
        assert not out.exists()
        assert "no bug found" in capsys.readouterr().out

    def test_replay_reproduces(self, tmp_path, capsys):
        saved = self.save(tmp_path, capsys)
        assert main(["trace", "replay", str(saved)]) == 0
        assert "replay: reproduced" in capsys.readouterr().out

    def test_replay_against_wrong_program_exits_nonzero(self, tmp_path, capsys):
        saved = self.save(tmp_path, capsys)
        code = main(["trace", "replay", str(saved), "--program", "toy:deadlock"])
        assert code == 1
        assert "schedule mismatch (fingerprint)" in capsys.readouterr().out

    def test_replay_rejects_malformed_file(self, tmp_path):
        junk = tmp_path / "junk.trace.json"
        junk.write_text("{broken")
        with pytest.raises(SystemExit, match="bad trace file"):
            main(["trace", "replay", str(junk)])

    def test_minimize_writes_and_still_reproduces(self, tmp_path, capsys):
        saved = self.save(tmp_path, capsys)
        minimized = tmp_path / "counter.min.trace.json"
        assert main(["trace", "minimize", str(saved), "--out", str(minimized)]) == 0
        out = capsys.readouterr().out
        assert "minimized" in out and str(minimized) in out
        assert minimized.exists()
        assert main(["trace", "replay", str(minimized)]) == 0

    def test_minimize_refuses_stale_trace(self, tmp_path, capsys):
        saved = self.save(tmp_path, capsys)
        with pytest.raises(SystemExit, match="refusing to minimize"):
            main(["trace", "minimize", str(saved), "--program", "toy:deadlock"])


class TestCorpus:
    def test_check_trace_dir_feeds_corpus_run(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        code = main(
            ["check", "toy:atomic-counter", "--stop-on-first-bug",
             "--trace-dir", str(corpus)]
        )
        assert code == 1
        assert list(corpus.glob("*.trace.json"))
        capsys.readouterr()
        assert main(["corpus", "run", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out
        assert "REPRODUCED" in out

    def test_empty_corpus_exits_nonzero(self, tmp_path, capsys):
        assert main(["corpus", "run", str(tmp_path)]) == 1
        assert "no *.trace.json files" in capsys.readouterr().out

    def test_failing_trace_exits_nonzero(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["check", "toy:atomic-counter", "--stop-on-first-bug",
              "--trace-dir", str(corpus)])
        (corpus / "junk.trace.json").write_text("{broken")
        capsys.readouterr()
        assert main(["corpus", "run", str(corpus)]) == 1
        assert "ERROR" in capsys.readouterr().out


class TestClosedStdout:
    @pytest.mark.parametrize(
        "args", [["list"], ["check", "toy:stats-assert", "--bound", "1"]]
    )
    def test_a_reader_that_has_gone_ends_the_command_quietly(self, args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)  # like `repro ... | head` after head exits
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *args],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr
