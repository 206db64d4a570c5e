"""Cross-host cache and trace sync: the shared cache-key vocabulary,
pull-on-miss turning a peer's finished work into a local cache hit,
and idle anti-entropy convergence."""

from __future__ import annotations

import json

import pytest

from repro.net.http_api import HttpFrontend, ServiceAPI
from repro.net.sync import CacheSync, job_cache_key
from repro.obs import Instrumentation
from repro.service.cache import RESULT_CACHE_FORMAT, RESULT_CACHE_SUFFIX
from repro.service.daemon import CheckingService
from repro.service.jobs import Job
from repro.trace.format import TRACE_SUFFIX

SPEC = "toy:stats-race"


def warm_service(root):
    """A service that already checked SPEC (cache + witness trace)."""
    service = CheckingService(root)
    job = service.queue.submit(SPEC, max_bound=1)
    service.serve(once=True)
    assert service.queue.get(job.id).status == "done"
    return service


@pytest.fixture()
def warm_peer(tmp_path):
    front = HttpFrontend(
        ServiceAPI(warm_service(tmp_path / "a"), daemon_id="warm"), port=0
    ).start()
    yield front
    front.close()


def test_job_cache_key_speaks_the_checkers_vocabulary(tmp_path):
    service = warm_service(tmp_path / "svc")
    job = service.queue.jobs()[0]
    key = job_cache_key(job)
    # The daemon's own run cached its result under exactly this key.
    assert key is not None
    assert service.cache.path_for(key).exists()
    # Unresolvable specs yield no key rather than an error.
    assert job_cache_key(Job(id="x", spec="no:such-program")) is None


def test_pull_on_miss_installs_the_peers_entry(warm_peer, tmp_path):
    cold = CheckingService(tmp_path / "b")
    obs = Instrumentation()
    sync = CacheSync(cold, peers=[warm_peer.url], obs=obs)
    job = cold.queue.submit(SPEC, max_bound=1)
    key = sync.pull_for_job(job)
    assert key == job_cache_key(job)
    path = cold.cache.path_for(key)
    assert path.exists()
    assert json.loads(path.read_text())["key"] == key
    assert obs.metrics.counters["cache_sync_hits"] == 1
    # Already warm: a second pull is a no-op.
    assert sync.pull_for_job(job) is None
    # The pulled entry makes the local run a pure cache hit.
    cold.serve(once=True)
    record = cold.queue.get(job.id)
    assert record.status == "done" and record.cache_hit is True


def test_anti_entropy_converges_and_is_idempotent(warm_peer, tmp_path):
    cold = CheckingService(tmp_path / "b")
    sync = CacheSync(cold, peers=[warm_peer.url])
    warm = warm_peer.api.service
    want_keys = {
        p.name[: -len(RESULT_CACHE_SUFFIX)]
        for p in warm.cache.root.iterdir()
        if p.name.endswith(RESULT_CACHE_SUFFIX)
    }
    want_traces = {
        p.name for p in warm.traces_dir.iterdir()
        if p.name.endswith(TRACE_SUFFIX)
    }
    assert want_keys and want_traces  # the warm run produced both
    pulled = sync.anti_entropy()
    assert pulled == {"results": len(want_keys), "traces": len(want_traces)}
    assert {
        p.name[: -len(RESULT_CACHE_SUFFIX)]
        for p in cold.cache.root.iterdir()
        if p.name.endswith(RESULT_CACHE_SUFFIX)
    } == want_keys
    # Content-addressed stores converge: the sweep is idempotent.
    assert sync.anti_entropy() == {"results": 0, "traces": 0}


def test_synced_bytes_are_identical_to_the_peers(warm_peer, tmp_path):
    cold = CheckingService(tmp_path / "b")
    CacheSync(cold, peers=[warm_peer.url]).anti_entropy()
    warm = warm_peer.api.service
    for path in warm.cache.root.iterdir():
        mirrored = cold.cache.root / path.name
        assert json.loads(mirrored.read_text()) == json.loads(path.read_text())
    for path in warm.traces_dir.iterdir():
        mirrored = cold.traces_dir / path.name
        assert json.loads(mirrored.read_text()) == json.loads(path.read_text())


def test_a_dead_peer_is_not_an_error(tmp_path):
    cold = CheckingService(tmp_path / "b")
    sync = CacheSync(cold, peers=["http://127.0.0.1:9"])  # discard port
    job = cold.queue.submit(SPEC, max_bound=1)
    assert sync.pull_for_job(job) is None
    assert sync.anti_entropy() == {"results": 0, "traces": 0}


def test_foreign_or_mismatched_entries_are_rejected(tmp_path):
    cold = CheckingService(tmp_path / "b")
    sync = CacheSync(cold)
    key = "ab" * 32
    assert sync._store_entry(key, {"format": "wrong", "key": key}, "peer") is False
    assert sync._store_entry(key, "not a dict", "peer") is False
    assert sync._store_trace("../escape" + TRACE_SUFFIX, {}, "peer") is False
    assert not cold.cache.path_for(key).exists()


def test_malformed_entries_are_not_installed(tmp_path):
    # An entry with the right format and key but nothing else used to be
    # installed as is; every job of its plan then failed to decode it.
    cold = CheckingService(tmp_path / "b")
    sync = CacheSync(cold)
    job = cold.queue.submit("toy:racy-counter", max_bound=1)
    key = job_cache_key(job)
    bare = {"format": RESULT_CACHE_FORMAT, "key": key}
    assert sync._store_entry(key, bare, "peer") is False
    assert sync._store_trace("bare" + TRACE_SUFFIX, {"format": "repro-trace"}, "peer") is False
    assert not cold.cache.path_for(key).exists()
    assert not (cold.traces_dir / ("bare" + TRACE_SUFFIX)).exists()
    cold.serve(once=True)
    record = cold.queue.get(job.id)
    assert record.status == "done" and not record.cache_hit
