"""The stateless HTTP front-end and its client: routing, strict wire
validation at the boundary, idempotent submits, and the client's
bounded jittered retry loop."""

from __future__ import annotations

import json

import pytest

from repro.net.client import ServiceClient, ServiceClientError
from repro.net.http_api import HttpFrontend, ServiceAPI
from repro.net.wire import WIRE_FORMAT, WIRE_VERSION, envelope, submit_to_wire
from repro.obs import Instrumentation
from repro.service.daemon import CheckingService


@pytest.fixture()
def api(tmp_path):
    service = CheckingService(tmp_path / "svc")
    return ServiceAPI(service, daemon_id="test-daemon")


def post_submit(api, body):
    return api.handle("POST", "/v1/jobs", json.dumps(body).encode("utf-8"))


# -- dispatch ----------------------------------------------------------------


def test_healthz_reports_liveness(api):
    status, body = api.handle("GET", "/v1/healthz", None)
    assert status == 200
    assert body["ok"] is True
    assert body["daemon"] == "test-daemon"
    assert body["format"] == WIRE_FORMAT and body["version"] == WIRE_VERSION


def test_unknown_paths_are_404(api):
    for path in ("/", "/v2/healthz", "/v1/nope", "/v1/jobs/x/y"):
        status, body = api.handle("GET", path, None)
        assert status == 404, path
        assert "error" in body


def test_wrong_method_is_405(api):
    status, _ = api.handle("POST", "/v1/results/job-000001", None)
    assert status == 405


@pytest.mark.parametrize(
    "raw",
    [
        b"",
        b"not json",
        json.dumps({"spec": "toy:stats-race"}).encode(),  # no envelope
        json.dumps(
            {"format": WIRE_FORMAT, "version": 99, "spec": "x"}
        ).encode(),
        json.dumps(envelope({"spec": "x", "bogus": 1})).encode(),
    ],
)
def test_malformed_submits_are_400_with_a_message(api, raw):
    status, body = api.handle("POST", "/v1/jobs", raw or None)
    assert status == 400
    assert body["error"]["message"]


@pytest.mark.parametrize(
    "fields, fragment",
    [
        ({"workers": 0, "state_caching": True}, "workers must be at least 1"),
        ({"workers": 2, "state_caching": True}, "state_caching is per-process"),
        ({"max_bound": -1}, "max_bound must be non-negative"),
    ],
)
def test_a_refused_plan_is_400_and_journals_nothing(api, fields, fragment):
    body = submit_to_wire("bluetooth")
    body.update(fields)
    status, reply = post_submit(api, body)
    assert status == 400
    assert fragment in reply["error"]["message"]
    assert api.service.queue.jobs() == []


def test_submit_then_fetch_then_dedup(api):
    status, body = post_submit(api, submit_to_wire("toy:stats-race", max_bound=1))
    assert status == 200
    job = body["job"]
    assert job["id"] == "job-000001"
    assert body["deduplicated"] is False
    assert len(job["identity"]) == 64
    # Identical active work deduplicates; the wire says so.
    status, again = post_submit(api, submit_to_wire("toy:stats-race", max_bound=1))
    assert again["job"]["id"] == job["id"]
    assert again["deduplicated"] is True
    status, listing = api.handle("GET", "/v1/jobs", None)
    assert [j["id"] for j in listing["jobs"]] == [job["id"]]
    status, one = api.handle("GET", f"/v1/jobs/{job['id']}", None)
    assert one["job"]["status"] == "queued"


def test_unknown_job_and_pending_result_statuses(api):
    status, body = api.handle("GET", "/v1/jobs/job-000099", None)
    assert status == 404
    assert "unknown job id" in body["error"]["message"]
    post_submit(api, submit_to_wire("toy:stats-race", max_bound=1))
    status, body = api.handle("GET", "/v1/results/job-000001", None)
    assert status == 409
    assert "is queued; no result yet" in body["error"]["message"]
    status, body = api.handle("GET", "/v1/results/job-000099", None)
    assert status == 404


def test_cache_entries_are_read_only(api):
    # Peers pull entries; nothing can push one, let alone plant a
    # mismatched one.
    key = "ab" * 32
    entry = json.dumps({"entry": {"format": "wrong", "key": key}}).encode("utf-8")
    status, _ = api.handle("POST", f"/v1/cache/{key}", entry)
    assert status == 405
    assert not api.service.cache.path_for(key).exists()


def test_sync_endpoints_validate_identifiers(api):
    status, _ = api.handle("GET", "/v1/cache/not-a-key", None)
    assert status == 400
    status, _ = api.handle("GET", "/v1/cache/" + "0" * 64, None)
    assert status == 404
    status, _ = api.handle("GET", "/v1/traces/..%2Fescape", None)
    assert status == 400
    status, body = api.handle("GET", "/v1/cache", None)
    assert status == 200 and body["keys"] == []
    status, body = api.handle("GET", "/v1/traces", None)
    assert status == 200 and body["names"] == []


def test_requests_are_counted_by_obs(tmp_path):
    obs = Instrumentation()
    api = ServiceAPI(CheckingService(tmp_path / "svc"), obs=obs)
    api.handle("GET", "/v1/healthz", None)
    api.handle("GET", "/v1/jobs/job-000099", None)
    assert obs.metrics.counters["http_requests"] == 2
    status, stats = api.handle("GET", "/v1/stats", None)
    assert stats["counters"]["http_requests"] == 2


# -- the live server and its client ------------------------------------------


@pytest.fixture()
def frontend(tmp_path):
    service = CheckingService(tmp_path / "svc")
    front = HttpFrontend(ServiceAPI(service, daemon_id="live"), port=0).start()
    yield front
    front.close()


def test_client_round_trip_over_real_http(frontend):
    client = ServiceClient(frontend.url, timeout=5.0)
    assert client.healthz()["daemon"] == "live"
    job = client.submit("toy:stats-race", max_bound=1)
    assert job["id"] == "job-000001"
    # Resubmit (as after a lost response): same job, not a duplicate.
    assert client.submit("toy:stats-race", max_bound=1)["id"] == job["id"]
    assert [j["id"] for j in client.jobs()] == [job["id"]]
    assert client.job(job["id"])["status"] == "queued"
    stats = client.stats()
    assert stats["jobs"] == {"queued": 1}
    # The service behind the API runs the job; the result appears.
    frontend.api.service.serve(once=True)
    assert client.job(job["id"])["status"] == "done"
    result = client.results(job["id"])
    assert result["found_bug"] is True
    assert client.wait(job["id"])["status"] == "done"


def test_client_errors_carry_the_servers_message(frontend):
    client = ServiceClient(frontend.url, timeout=5.0)
    with pytest.raises(ServiceClientError) as excinfo:
        client.job("job-000099")
    assert excinfo.value.status == 404
    assert "unknown job id" in str(excinfo.value)
    client.submit("toy:stats-race", max_bound=1)
    with pytest.raises(ServiceClientError) as excinfo:
        client.results("job-000001")
    assert excinfo.value.status == 409
    assert "no result yet" in str(excinfo.value)


def test_client_retries_connection_failures_with_jittered_backoff(monkeypatch):
    # Nothing listens on this port (bind-then-close reserves a dead one).
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    sleeps = []
    monkeypatch.setattr("repro.net.client.time.sleep", sleeps.append)
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=1.0,
                           retries=3, backoff=0.1)
    with pytest.raises(ServiceClientError) as excinfo:
        client.healthz()
    assert "after 4 attempt(s)" in str(excinfo.value)
    assert len(sleeps) == 3
    # Exponential base delays 0.1, 0.2, 0.4 scaled by jitter in [0.5, 1).
    for base, actual in zip((0.1, 0.2, 0.4), sleeps):
        assert base * 0.5 <= actual < base


def test_client_does_not_retry_4xx(frontend, monkeypatch):
    sleeps = []
    monkeypatch.setattr("repro.net.client.time.sleep", sleeps.append)
    client = ServiceClient(frontend.url, retries=3)
    with pytest.raises(ServiceClientError):
        client.job("job-000099")
    assert sleeps == []  # a 404 is a fact, not a transient
