"""The fleet acceptance tests: two daemons sharing one service root
complete every job exactly once -- including when one of them is
SIGKILLed mid-run -- and the merged results are byte-identical to a
single-daemon run of the same submissions (modulo provenance)."""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import repro
from repro.net import FleetDaemon, ServiceClient
from repro.service import CheckingService
from repro.service.jobs import JOURNAL_NAME, JobQueue

#: (spec, bound) submissions: distinct work keys, no stop-on-first-bug,
#: so cross-job caching cannot make the fleet and single-daemon
#: explorations diverge.
QUICK_JOBS = [
    ("toy:stats-race", 1),
    ("toy:racy-counter", 1),
    ("toy:uaf", 1),
    ("toy:atomic-counter", 1),
    ("toy:deadlock", 1),
    ("toy:stats-assert", 1),
]

#: Long enough that a promptly-delivered SIGKILL lands mid-search.
KILL_JOBS = [
    ("wsq:pop-race", 2),
    ("dryad:use-after-free", 1),
    ("bluetooth", 2),
    ("wsq:steal-stale-tail", 2),
]

#: Result keys recording *how* the answer was produced (served from
#: cache, resumed from a checkpoint) rather than what it is; everything
#: else must match byte for byte.
PROVENANCE = ("cache_hit", "resumed")


def canonical_results(root):
    """job id -> canonical result bytes, provenance stripped."""
    out = {}
    for path in sorted((pathlib.Path(root) / "results").glob("*.json")):
        payload = json.loads(path.read_text())
        for key in PROVENANCE:
            payload.pop(key, None)
        out[payload["job"]] = json.dumps(payload, sort_keys=True)
    return out


def single_daemon_results(root, jobs):
    service = CheckingService(root)
    for spec, bound in jobs:
        service.queue.submit(spec, max_bound=bound)
    service.serve(once=True)
    return canonical_results(root)


def test_two_daemons_one_root_every_job_exactly_once(tmp_path):
    root = tmp_path / "fleet"
    alpha = FleetDaemon(root, daemon_id="alpha", http_port=0).start()
    beta = FleetDaemon(root, daemon_id="beta").start()
    try:
        client = ServiceClient(alpha.url, timeout=5.0)
        ids = [
            client.submit(spec, max_bound=bound)["id"]
            for spec, bound in QUICK_JOBS
        ]
        threads = [
            threading.Thread(target=daemon.serve, kwargs={"once": True})
            for daemon in (alpha, beta)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "a daemon failed to drain the queue"
        records = {r["id"]: r for r in client.jobs()}
        assert sorted(records) == sorted(ids)
        for job_id in ids:
            record = records[job_id]
            # Exactly once: one honoured claim, one honoured completion.
            assert record["status"] == "done", record
            assert record["attempts"] == 1
            assert record["fence"] == 1
            assert (root / "results" / f"{job_id}.json").exists()
    finally:
        alpha.close()
        beta.close()
    # Both daemons ran under uncontended once-mode: between them every
    # job was claimed, and the merged answers equal a solo run's.
    assert canonical_results(root) == single_daemon_results(
        tmp_path / "solo", QUICK_JOBS
    )


# -- the crash acceptance test (fresh interpreters, real HTTP) ---------------


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])
    return env


def _start_daemon(root, daemon_id):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(root),
            "--fleet", "--http", "0", "--daemon-id", daemon_id,
            "--lease-ttl", "1", "--poll-interval", "0.05",
        ],
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


def test_sigkilled_daemon_is_taken_over_without_double_execution(tmp_path):
    root = tmp_path / "fleet"
    alpha, alpha_url = _start_daemon(root, "alpha")
    beta, beta_url = _start_daemon(root, "beta")
    victim_job = None
    try:
        client = ServiceClient(alpha_url, timeout=10.0)
        ids = [
            client.submit(spec, max_bound=bound)["id"]
            for spec, bound in KILL_JOBS
        ]
        # SIGKILL beta the moment it is seen running a job.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            running = [
                r for r in client.jobs()
                if r["status"] == "running" and r["owner"] == "beta"
            ]
            if running:
                victim_job = running[0]["id"]
                break
            time.sleep(0.02)
        assert victim_job is not None, "beta never claimed a job"
        _kill(beta)
        # Alpha must expire beta's lease, take the job over, resume it
        # from the shared checkpoint, and finish everything.
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            records = {r["id"]: r for r in client.jobs()}
            if all(records[i]["status"] == "done" for i in ids):
                break
            assert all(records[i]["status"] != "failed" for i in ids)
            time.sleep(0.1)
        records = {r["id"]: r for r in client.jobs()}
        assert all(records[i]["status"] == "done" for i in ids), records
    finally:
        _kill(beta)
        _kill(alpha)

    events = [
        json.loads(line)
        for line in (root / JOURNAL_NAME).read_text().splitlines()
    ]
    # The takeover is in the journal: beta's lease on the victim job
    # expired and the next claim carried a higher fence.
    expiries = [
        e for e in events
        if e["event"] == "lease_expired" and e["id"] == victim_job
    ]
    assert expiries, "no lease takeover was journalled"
    assert "lease of beta expired" in expiries[0]["error"]
    victim = JobQueue(root).get(victim_job)
    assert victim.status == "done"
    assert victim.fence >= 2 and victim.attempts >= 2
    # Exactly once: a SIGKILLed owner cannot acknowledge, so every job
    # has exactly one honoured completion in the journal.
    completions = {}
    for event in events:
        if event["event"] == "completed":
            completions[event["id"]] = completions.get(event["id"], 0) + 1
    assert completions == {job_id: 1 for job_id in completions}
    assert set(completions) == {job.id for job in JobQueue(root).jobs()}
    # And the merged fleet results are byte-identical (modulo
    # provenance: the victim's resumed flag) to a solo run's.
    assert canonical_results(root) == single_daemon_results(
        tmp_path / "solo", KILL_JOBS
    )


def test_a_duplicate_on_a_peer_is_a_cache_hit_through_pull_on_miss(tmp_path):
    """A job finished on one daemon makes its duplicate, submitted to a
    peer right after, a cache hit there: the peer pulls the entry on
    its miss, before any anti-entropy sweep runs."""
    from repro.obs import Instrumentation
    from repro.net.sync import job_cache_key

    first = FleetDaemon(
        tmp_path / "first", daemon_id="first", http_port=0, sync_interval=1e9
    ).start()
    try:
        first.service.queue.submit("toy:stats-race", max_bound=1)
        assert first.serve(once=True) == 1
        obs = Instrumentation()
        peer = FleetDaemon(
            tmp_path / "peer",
            daemon_id="peer",
            peers=[first.url],
            obs=obs,
            sync_interval=1e9,  # no sweeps: only the pull can deliver
        ).start()
        job = peer.service.queue.submit("toy:stats-race", max_bound=1)
        key = job_cache_key(job)
        assert not peer.service.cache.path_for(key).exists()
        assert peer.serve(once=True) == 1
        done = peer.service.queue.get(job.id)
        assert done.status == "done" and done.cache_hit
        assert (
            peer.service.cache.path_for(key).read_text()
            == first.service.cache.path_for(key).read_text()
        )
        # The pull is visible in `repro stats`: the counter and its
        # summary line.
        assert obs.metrics.counters["cache_sync_hits"] == 1
        assert "cache sync hits" in obs.metrics.snapshot().summary()
    finally:
        first.close()
