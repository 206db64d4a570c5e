"""The CLI's remote paths: ``repro submit/status/results --server``
against a live front-end in fresh interpreters, including the clear
non-zero-exit errors for unknown job ids and unreachable daemons."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.net.http_api import HttpFrontend, ServiceAPI
from repro.service.daemon import CheckingService


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


@pytest.fixture()
def frontend(tmp_path):
    service = CheckingService(tmp_path / "svc")
    front = HttpFrontend(ServiceAPI(service, daemon_id="cli"), port=0).start()
    yield front
    front.close()


def test_submit_status_results_over_server(frontend):
    url = frontend.url
    job_id = _run("submit", "--server", url, "toy:stats-race",
                  "--bound", "1").stdout.strip()
    assert job_id == "job-000001"
    # Resubmitting over the wire re-lands on the same job.
    assert _run("submit", "--server", url, "toy:stats-race",
                "--bound", "1").stdout.strip() == job_id
    status = json.loads(_run("status", "--server", url, "--json").stdout)
    assert [job["status"] for job in status] == ["queued"]
    frontend.api.service.serve(once=True)
    one = json.loads(_run("status", "--server", url, job_id, "--json").stdout)
    assert [job["status"] for job in one] == ["done"]
    payload = json.loads(_run("results", "--server", url, job_id).stdout)
    assert payload["job"] == job_id
    assert payload["found_bug"] is True


def test_unknown_job_over_server_is_a_clear_error(frontend):
    url = frontend.url
    proc = _run("status", "--server", url, "job-000099", check=False)
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "unknown job id" in proc.stderr
    proc = _run("results", "--server", url, "job-000099", check=False)
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "unknown job id" in proc.stderr


def test_pending_result_over_server_is_a_clear_error(frontend):
    url = frontend.url
    job_id = _run("submit", "--server", url, "toy:stats-race",
                  "--bound", "1").stdout.strip()
    proc = _run("results", "--server", url, job_id, check=False)
    assert proc.returncode == 1
    assert f"job {job_id} is queued; no result yet" in proc.stderr


def test_unreachable_server_is_a_clear_error():
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    proc = _run("submit", "--server", f"http://127.0.0.1:{port}",
                "toy:stats-race", "--retries", "0", "--timeout", "1",
                check=False)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
