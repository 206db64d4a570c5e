"""CLI coverage for ``repro lint``, and the package boundary."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main

HIDDEN_STATE = "examples.invivo.hidden_state:make_program"
GLOBAL = "tests.analysis.fixtures:global_program"


def refusal(argv, capsys) -> str:
    """Run a refused command; assert exit 2 and return its stderr."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err


class TestLint:
    def test_findings_exit_nonzero(self, capsys):
        code = main(["lint", "--module", GLOBAL])
        captured = capsys.readouterr()
        assert code == 1
        assert "[hidden-state]" in captured.out
        assert "tests.analysis.fixtures.hits" in captured.out
        assert "not in the baseline" in captured.err

    def test_clean_program_exits_zero(self, capsys):
        spec = "examples.invivo.bounded_queue:make_program"
        assert main(["lint", "--module", spec]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_baseline_round_trip(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        spec = GLOBAL
        assert (
            main(["lint", "--module", spec, "--update-baseline", str(baseline)])
            == 0
        )
        assert "hidden-state" in baseline.read_text()
        capsys.readouterr()

        assert main(["lint", "--module", spec, "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "(baselined)" in out
        assert "all baselined" in out

    def test_missing_baseline_file_errors(self, tmp_path):
        spec = "examples.invivo.hidden_state:make_fixed"
        with pytest.raises(SystemExit):
            main(["lint", "--module", spec, "--baseline", str(tmp_path / "nope.txt")])

    def test_builtin_program_is_refused(self, capsys):
        err = refusal(["lint", "toy:deadlock"], capsys)
        assert "in-vivo programs given as --module pkg.mod:factory" in err

    def test_all_is_refused(self, capsys):
        err = refusal(["lint", "--all"], capsys)
        assert "in-vivo programs given as --module pkg.mod:factory" in err

    def test_dsl_factory_is_refused(self, capsys):
        spec = "repro.programs.toy:lock_order_deadlock"
        err = refusal(["lint", "--module", spec], capsys)
        assert "in-vivo programs given as --module pkg.mod:factory" in err

    def test_analyze_is_not_a_command(self, capsys):
        err = refusal(["analyze", "toy:deadlock"], capsys)
        assert "invalid choice: 'analyze'" in err

    def test_module_flag_lints_invivo_program(self, capsys):
        code = main(["lint", "--module", HIDDEN_STATE])
        captured = capsys.readouterr()
        assert code == 1
        assert "[hidden-state]" in captured.out
        assert "Stats.total" in captured.out
        assert "not in the baseline" in captured.err

    def test_module_flag_clean_program_exits_zero(self, capsys):
        code = main(
            ["lint", "--module", "examples.invivo.hidden_state:make_fixed"]
        )
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_module_flag_requires_factory_spec(self):
        with pytest.raises(SystemExit, match="module:factory"):
            main(["lint", "--module", "examples.invivo.hidden_state"])

    def test_module_flag_respects_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        spec = HIDDEN_STATE
        assert (
            main(["lint", "--module", spec, "--update-baseline", str(baseline)])
            == 0
        )
        assert "hidden-state" in baseline.read_text()
        capsys.readouterr()
        assert main(["lint", "--module", spec, "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "(baselined)" in out
        assert "all baselined" in out


def test_import_repro_leaves_the_analyzer_unloaded():
    # Every CLI call and library user pays for what `import repro`
    # loads; the analyzer is loaded by `repro lint` alone.
    root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = (
        "import sys, repro\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
