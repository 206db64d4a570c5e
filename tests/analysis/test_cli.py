"""CLI coverage for ``repro analyze`` and ``repro lint``."""

from __future__ import annotations

import pytest

from repro.cli import main

FIXTURES = "tests.analysis.fixtures"


class TestAnalyze:
    def test_single_program(self, capsys):
        assert main(["analyze", "toy:stats-race"]) == 0
        out = capsys.readouterr().out
        assert "stats-race" in out
        assert "ops0" in out

    def test_module_factory_spec(self, capsys):
        assert main(["analyze", f"{FIXTURES}:opaque_program"]) == 0
        out = capsys.readouterr().out
        assert "TOP" in out

    def test_all_builtins(self, capsys):
        assert main(["analyze", "--all"]) == 0
        out = capsys.readouterr().out
        # One block per builtin, blank-line separated.
        assert "program: bluetooth" in out
        assert "program: wsq" in out
        assert "program: stats-race" in out

    def test_program_and_all_conflict(self):
        with pytest.raises(SystemExit):
            main(["analyze", "toy:chain", "--all"])

    def test_neither_program_nor_all(self):
        with pytest.raises(SystemExit):
            main(["analyze"])

    def test_unknown_program_suggests_alternatives(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "toy:stats-rac"])
        message = str(excinfo.value)
        assert "unknown program" in message
        assert "did you mean" in message
        assert "toy:stats-race" in message

    def test_module_flag_analyzes_invivo_program(self, capsys):
        spec = "examples.invivo.hidden_state:make_program"
        assert main(["analyze", "--module", spec]) == 0
        out = capsys.readouterr().out
        assert "invivo-hidden-state" in out
        assert "stats.scratch-1" in out
        assert "hidden-state" in out

    def test_module_flag_conflicts_with_program(self):
        with pytest.raises(SystemExit, match="not a combination"):
            main(
                [
                    "analyze",
                    "toy:chain",
                    "--module",
                    "examples.invivo.hidden_state:make_program",
                ]
            )

    def test_module_flag_requires_factory_spec(self):
        with pytest.raises(SystemExit, match="module:factory"):
            main(["analyze", "--module", "examples.invivo.hidden_state"])


class TestLint:
    def test_findings_exit_nonzero(self, capsys):
        code = main(["lint", f"{FIXTURES}:double_acquire_program"])
        captured = capsys.readouterr()
        assert code == 1
        assert "double-acquire" in captured.out
        assert "not in the baseline" in captured.err

    def test_clean_program_exits_zero(self, capsys):
        assert main(["lint", "toy:racy-counter"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_baseline_round_trip(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        spec = f"{FIXTURES}:unreleased_lock_program"
        assert main(["lint", spec, "--update-baseline", str(baseline)]) == 0
        assert baseline.exists()
        capsys.readouterr()

        assert main(["lint", spec, "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "(baselined)" in out
        assert "all baselined" in out

    def test_missing_baseline_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["lint", "toy:chain", "--baseline", str(tmp_path / "nope.txt")])

    def test_unknown_program_suggests_alternatives(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "toy:stats-rac"])
        message = str(excinfo.value)
        assert "did you mean" in message
        assert "toy:stats-race" in message

    def test_module_flag_lints_invivo_program(self, capsys):
        code = main(
            ["lint", "--module", "examples.invivo.hidden_state:make_program"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "hidden-state" in captured.out
        assert "Stats.total" in captured.out

    def test_module_flag_clean_program_exits_zero(self, capsys):
        code = main(
            ["lint", "--module", "examples.invivo.hidden_state:make_fixed"]
        )
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_module_flag_respects_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        spec = "examples.invivo.hidden_state:make_program"
        assert (
            main(["lint", "--module", spec, "--update-baseline", str(baseline)])
            == 0
        )
        assert "hidden-state" in baseline.read_text()
        capsys.readouterr()
        assert main(["lint", "--module", spec, "--baseline", str(baseline)]) == 0
        assert "all baselined" in capsys.readouterr().out
