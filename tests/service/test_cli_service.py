"""The service surface of the CLI in fresh interpreters: the
machine-readable registry, the submit/serve/status/results loop, and
the hard acceptance test -- SIGKILL a parallel check mid-run, resume
it, and get exactly the uninterrupted serial answer."""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.programs import EXPECTED_BUGS, builtin_registry

from ._parity import BOUNDS, baseline, identities, summary

#: Specs big enough that a promptly-delivered SIGKILL lands mid-search.
KILL_SPECS = ["wsq:pop-race", "dryad:use-after-free"]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])
    return env


def _run(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=_env(),
    )
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def test_list_json_is_a_machine_readable_registry():
    proc = _run("list", "--json")
    entries = json.loads(proc.stdout)
    by_spec = {entry["spec"]: entry for entry in entries}
    assert set(by_spec) == set(builtin_registry())
    for entry in entries:
        assert set(entry) == {"spec", "name", "threads", "expected_bug", "buggy"}
        assert isinstance(entry["threads"], int) and entry["threads"] >= 1
        assert entry["buggy"] == (entry["spec"] in EXPECTED_BUGS)
        assert entry["expected_bug"] == EXPECTED_BUGS.get(entry["spec"])
    assert by_spec["wsq:pop-race"]["expected_bug"] == "assertion"
    assert by_spec["toy:dekker"]["buggy"] is False


def test_submit_serve_status_results_loop(tmp_path):
    root = str(tmp_path / "svc")
    job_id = _run("submit", root, "toy:stats-race", "--bound", "1").stdout.strip()
    assert job_id == "job-000001"
    # Identical resubmission is deduplicated while queued.
    assert _run("submit", root, "toy:stats-race", "--bound", "1").stdout.strip() == job_id
    _run("serve", root, "--once")
    status = json.loads(_run("status", root, "--json").stdout)
    assert [job["status"] for job in status] == ["done"]
    payload = json.loads(_run("results", root, job_id).stdout)
    assert payload["job"] == job_id
    assert payload["found_bug"] is True
    # Resubmitting finished work is a cache hit.
    second = _run("submit", root, "toy:stats-race", "--bound", "1").stdout.strip()
    assert second != job_id
    _run("serve", root, "--once")
    assert json.loads(_run("results", root, second).stdout)["cache_hit"] is True


@pytest.mark.parametrize(
    "flags, fragment",
    [
        (["--workers", "2", "--state-caching"], "state_caching is per-process"),
        (["--bound", "-1"], "max_bound must be non-negative"),
    ],
)
def test_submit_refuses_a_plan_with_a_one_line_error(tmp_path, flags, fragment):
    root = tmp_path / "svc"
    proc = _run("submit", str(root), "bluetooth", *flags, check=False)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and fragment in lines[0], proc.stderr
    assert not (root / "jobs.jsonl").exists()
    # --server refuses the plan before sending anything.
    proc = _run(
        "submit", "--server", "http://127.0.0.1:9", "bluetooth", *flags, check=False
    )
    assert proc.returncode != 0 and fragment in proc.stderr


def test_unknown_job_id_is_a_clear_error_with_nonzero_exit(tmp_path):
    root = str(tmp_path / "svc")
    job_id = _run("submit", root, "toy:stats-race", "--bound", "1").stdout.strip()
    proc = _run("status", root, "job-000099", check=False)
    assert proc.returncode == 1
    assert "error: unknown job id 'job-000099'" in proc.stderr
    proc = _run("results", root, "job-000099", check=False)
    assert proc.returncode == 1
    assert "error: unknown job id 'job-000099'" in proc.stderr
    # A known id whose job has not finished is a different clear error.
    proc = _run("results", root, job_id, check=False)
    assert proc.returncode == 1
    assert f"error: job {job_id} is queued; no result yet" in proc.stderr


@pytest.mark.parametrize("spec", KILL_SPECS)
def test_sigkilled_parallel_check_resumes_to_serial_parity(spec, tmp_path):
    base = baseline(spec)
    bound = BOUNDS[spec]
    ckpt = tmp_path / "kill.ckpt.json"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "check", spec,
            "--bound", str(bound), "--workers", "2",
            "--checkpoint", str(ckpt), "--checkpoint-stride", "4",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=_env(),
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not ckpt.exists() and time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        assert ckpt.exists(), "no checkpoint appeared before the run ended"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()

    # Resume in a fresh interpreter (same pinned hash seed) and report
    # the merged result as JSON for exact comparison.
    resume = (
        "import json, sys\n"
        "from repro import ChessChecker\n"
        "from repro.programs import resolve_builtin\n"
        f"r = ChessChecker(resolve_builtin({spec!r})).check(\n"
        f"    max_bound={bound}, workers=2, checkpoint={str(ckpt)!r})\n"
        "print(json.dumps({\n"
        "    'executions': r.executions,\n"
        "    'transitions': r.transitions,\n"
        "    'distinct_states': r.distinct_states,\n"
        "    'certified_bound': r.certified_bound,\n"
        "    'states_by_bound': sorted(r.search.context.states_by_bound().items()),\n"
        "    'identities': sorted([b.kind.value] + [str(t) for t in b.identity[1]]\n"
        "                         for b in r.search.bugs),\n"
        "    'completed': r.search.completed,\n"
        "}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", resume],
        capture_output=True,
        text=True,
        env=_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    resumed = json.loads(proc.stdout)
    assert resumed["completed"] is True
    expected = summary(base)
    assert resumed["executions"] == expected["executions"]
    assert resumed["transitions"] == expected["transitions"]
    assert resumed["distinct_states"] == expected["distinct_states"]
    assert resumed["certified_bound"] == expected["certified_bound"]
    assert resumed["states_by_bound"] == sorted(
        [k, v] for k, v in expected["states_by_bound"].items()
    )
    assert resumed["identities"] == sorted(
        [kind] + [str(t) for t in rest] for (kind, *rest) in identities(base)
    )


@pytest.mark.parametrize("refusal", ["v1", "mismatch"])
def test_refused_checkpoint_is_a_one_line_error(refusal, tmp_path):
    """A checkpoint the checker refuses ends `repro check` with its
    one-line message on stderr, not a traceback."""
    path = tmp_path / "refused.ckpt.json"
    from repro import ChessChecker, SearchLimits
    from repro.programs import resolve_builtin

    ChessChecker(resolve_builtin("wsq:pop-race")).check(
        max_bound=2,
        limits=SearchLimits(max_transitions=300),
        checkpoint=path,
        checkpoint_stride=8,
    )
    if refusal == "v1":
        data = json.loads(path.read_text())
        data["version"] = 1
        path.write_text(json.dumps(data))
        program, expected = "wsq:pop-race", "re-run"
    else:
        program, expected = "bluetooth", "different search"
    proc = _run("check", program, "--checkpoint", str(path), check=False)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and expected in lines[0], proc.stderr
