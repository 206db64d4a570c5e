"""CLI integration: ``check --metrics-out/--events-out`` artifacts and
the ``repro stats`` reader agreeing with ``CheckResult.summary()``."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.obs import MetricsSnapshot, validate_event_log


def run_check(capsys, tmp_path, *extra):
    path = tmp_path / "metrics.json"
    code = main(
        ["check", "toy:atomic-counter", "--bound", "1", "--metrics-out", str(path)]
        + list(extra)
    )
    out = capsys.readouterr().out
    match = re.search(r"icb: (\d+) executions, (\d+) states, (\d+) bug\(s\)", out)
    assert match, out
    return code, path, tuple(int(g) for g in match.groups())


class TestMetricsOut:
    def test_stats_agrees_with_check_summary(self, capsys, tmp_path):
        code, path, (executions, states, bugs) = run_check(capsys, tmp_path)
        assert code == 1  # atomic-counter has a bug
        assert main(["stats", str(path)]) == 0
        stats = capsys.readouterr().out
        assert f"executions: {executions}" in stats
        assert f"distinct states: {states}" in stats
        assert f"bugs: {bugs}" in stats

    def test_snapshot_counters_match_check_summary(self, capsys, tmp_path):
        _, path, (executions, states, bugs) = run_check(capsys, tmp_path)
        snap = MetricsSnapshot.load(path)
        assert snap.executions == executions
        assert snap.distinct_states == states
        assert snap.counters.get("bugs_found", 0) == bugs
        assert sum(snap.executions_by_bound.values()) == executions
        assert sum(snap.states_by_bound.values()) == states

    def test_stats_reports_replay_counters(self, capsys, tmp_path):
        _, path, _ = run_check(capsys, tmp_path)
        snap = MetricsSnapshot.load(path)
        replays, steps = snap.counters["replays"], snap.counters["replay_steps"]
        assert replays > 0 and steps > 0
        assert main(["stats", str(path)]) == 0
        stats = capsys.readouterr().out
        assert f"replays: {replays} ({steps} steps re-executed)" in stats

    def test_clean_program_writes_metrics_too(self, capsys, tmp_path):
        path = tmp_path / "clean.json"
        code = main(
            ["check", "toy:dekker", "--bound", "1", "--metrics-out", str(path)]
        )
        assert code == 0
        snap = MetricsSnapshot.load(path)
        assert snap.executions > 0
        assert snap.counters.get("bugs_found", 0) == 0


class TestEventsOut:
    def test_events_log_written_and_readable(self, capsys, tmp_path):
        log = tmp_path / "run.events.jsonl"
        main(["check", "toy:atomic-counter", "--bound", "1", "--events-out", str(log)])
        capsys.readouterr()
        events = validate_event_log(log)
        assert events[0].kind == "search_started"
        assert events[-1].kind == "search_finished"

    def test_stats_renders_event_summary(self, capsys, tmp_path):
        log = tmp_path / "run.events.jsonl"
        main(["check", "toy:atomic-counter", "--bound", "1", "--events-out", str(log)])
        capsys.readouterr()
        assert main(["stats", str(log)]) == 0
        out = capsys.readouterr().out
        assert "search_finished: 1" in out
        assert "coverage: distinct states vs executions" in out


class TestProgressAndProfile:
    def test_progress_writes_to_stderr(self, capsys):
        main(["check", "toy:atomic-counter", "--bound", "1", "--progress"])
        err = capsys.readouterr().err
        assert "exec" in err and "states" in err

    def test_no_progress_is_default(self, capsys):
        main(["check", "toy:atomic-counter", "--bound", "1"])
        assert capsys.readouterr().err == ""

    def test_profile_prints_phase_table(self, capsys):
        main(["check", "toy:atomic-counter", "--bound", "1", "--profile"])
        err = capsys.readouterr().err
        for phase in ("schedule", "execute", "fingerprint"):
            assert phase in err

    def test_progress_interval_requires_workers(self):
        with pytest.raises(SystemExit, match="requires --workers"):
            main(["check", "toy:atomic-counter", "--progress-interval", "10"])

    def test_progress_interval_must_be_positive(self):
        with pytest.raises(SystemExit, match="at least 1"):
            main(
                ["check", "toy:atomic-counter", "--workers", "2",
                 "--progress-interval", "0"]
            )


class TestStatsErrors:
    def test_unknown_file_kind(self, tmp_path):
        path = tmp_path / "mystery.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(SystemExit):
            main(["stats", str(path)])

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["stats", str(tmp_path / "nope.json")])
