"""Fleet throughput: submit-to-result latency and cache-hit rate,
one daemon vs two, cold vs warm.

Four phases, each driving real ``repro serve --fleet --http`` daemon
processes through the HTTP client:

* **cold-1** -- one daemon, every job explored from scratch;
* **cold-2** -- a fresh root, the same jobs, two daemons sharing the
  journal under lease fencing: the makespan shrinks because distinct
  jobs really run in parallel (separate processes, one per claim);
* **warm-1** -- the same work resubmitted to the cold-1 root: every
  job is a result-cache hit, served without exploring anything;
* **warm-x** -- a fresh root whose daemon has the cold-1 daemon as a
  ``--peer``: pull-on-miss fetches each job's exact cache entry over
  HTTP, so a *different host* serves the whole batch from cache too.

Asserted shape:

* every phase completes every job exactly once (attempts == 1);
* cold phases hit the cache never, warm phases always;
* warm-1 is at least 5x faster end to end than cold-1;
* two cold daemons do not worsen *mean* submit-to-result latency:
  even on one core, short jobs stop queueing behind the long search
  and finish earlier.  (Makespan is reported but not asserted -- it
  is floored by the longest single job, and on a starved machine two
  competing daemons can stretch that job.)
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import time

import repro
from repro.net import ServiceClient

from _common import emit, run_once

#: (spec, bound) -- distinct work keys; a couple of meaty searches so
#: parallelism has something to parallelise, the rest quick.
WORKLOADS = (
    ("wsq:pop-race", 2),
    ("bluetooth", 2),
    ("dryad:use-after-free", 1),
    ("toy:stats-assert", 1),
    ("toy:atomic-counter", 1),
    ("toy:deadlock", 1),
)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])
    return env


def _start_daemon(root, daemon_id, peers=()):
    args = [
        sys.executable, "-m", "repro", "serve", str(root),
        "--fleet", "--http", "0", "--daemon-id", daemon_id,
        "--poll-interval", "0.05",
    ]
    for peer in peers:
        args += ["--peer", peer]
    proc = subprocess.Popen(
        args,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=_env(),
        start_new_session=True,
    )
    line = proc.stdout.readline().strip()
    assert line.startswith("listening on http://"), line
    return proc, line.split("listening on ", 1)[1]


def _kill(proc):
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _drive(url, deadline=600.0):
    """Submit every workload, poll to completion; one phase's numbers."""
    client = ServiceClient(url, timeout=10.0)
    submitted = {}
    for spec, bound in WORKLOADS:
        t0 = time.perf_counter()
        job = client.submit(spec, max_bound=bound)
        submitted[job["id"]] = t0
    t_start = min(submitted.values())
    latency = {}
    end = time.monotonic() + deadline
    while len(latency) < len(submitted) and time.monotonic() < end:
        for record in client.jobs():
            job_id = record["id"]
            if job_id in submitted and job_id not in latency:
                if record["status"] == "done":
                    latency[job_id] = time.perf_counter() - submitted[job_id]
                assert record["status"] != "failed", record
        time.sleep(0.02)
    assert len(latency) == len(submitted), "phase did not drain"
    records = {r["id"]: r for r in client.jobs() if r["id"] in submitted}
    assert all(r["attempts"] == 1 for r in records.values())
    hits = sum(1 for r in records.values() if r["cache_hit"])
    return {
        "makespan": time.perf_counter() - t_start,
        "mean_latency": sum(latency.values()) / len(latency),
        "max_latency": max(latency.values()),
        "hit_rate": hits / len(records),
    }


def run_experiment(tmp_path):
    phases = {}
    warm_proc, warm_url = _start_daemon(tmp_path / "one", "solo")
    try:
        phases["cold-1"] = _drive(warm_url)
        phases["warm-1"] = _drive(warm_url)

        cross_proc, cross_url = _start_daemon(
            tmp_path / "cross", "cross", peers=[warm_url]
        )
        try:
            phases["warm-x"] = _drive(cross_url)
        finally:
            _kill(cross_proc)

        a, a_url = _start_daemon(tmp_path / "two", "alpha")
        b, _ = _start_daemon(tmp_path / "two", "beta")
        try:
            phases["cold-2"] = _drive(a_url)
        finally:
            _kill(a)
            _kill(b)
    finally:
        _kill(warm_proc)
    return phases


def render(phases) -> str:
    lines = [
        "Fleet throughput: submit-to-result latency over the HTTP API",
        f"({len(WORKLOADS)} jobs; cold = fresh root, warm = resubmission,",
        " warm-x = fresh root pulling a peer's cache; -N = daemon count)",
        "",
        f"{'phase':<8} {'daemons':>7} {'makespan s':>11} "
        f"{'mean lat s':>11} {'max lat s':>10} {'cache hits':>11}",
    ]
    daemons = {"cold-1": 1, "warm-1": 1, "warm-x": 1, "cold-2": 2}
    for name in ("cold-1", "cold-2", "warm-1", "warm-x"):
        row = phases[name]
        lines.append(
            f"{name:<8} {daemons[name]:>7} {row['makespan']:>11.2f} "
            f"{row['mean_latency']:>11.3f} {row['max_latency']:>10.3f} "
            f"{row['hit_rate']:>10.0%}"
        )
    speedup = phases["cold-1"]["mean_latency"] / phases["cold-2"]["mean_latency"]
    lines += ["", f"two-daemon mean-latency speedup over one (cold): {speedup:.2f}x"]
    return "\n".join(lines)


def test_fleet_throughput(benchmark, tmp_path):
    phases = run_once(benchmark, lambda: run_experiment(tmp_path))
    emit("fleet_throughput", render(phases))

    assert phases["cold-1"]["hit_rate"] == 0.0
    assert phases["cold-2"]["hit_rate"] == 0.0
    # Warm phases never explore: local resubmission and cross-host
    # pull-on-miss both serve the whole batch from cache.
    assert phases["warm-1"]["hit_rate"] == 1.0
    assert phases["warm-x"]["hit_rate"] == 1.0
    assert phases["warm-1"]["makespan"] * 5 <= phases["cold-1"]["makespan"]
    # A second daemon lets short jobs stop queueing behind the long
    # search, so mean latency must not regress (1.1x absorbs noise).
    assert (
        phases["cold-2"]["mean_latency"]
        <= phases["cold-1"]["mean_latency"] * 1.1
    )
