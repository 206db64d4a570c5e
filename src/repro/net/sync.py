"""Cross-host result-cache and trace-corpus sync.

Both stores are content-addressed -- cache entries by the SHA-256 of
everything that determines a check's outcome, traces by their witness
identity -- so replication needs no versions, no timestamps and no
conflict resolution: an object either exists under its key or it does
not, fetching it twice writes the same bytes, and two daemons syncing
each other converge.  Two mechanisms share that property:

* **pull-on-miss** (:meth:`CacheSync.pull_for_job`): before running a
  claimed job, ask the peers for exactly its cache key.  A warm peer
  turns the job into a local cache hit -- the submit is served without
  exploring anything, which is the whole point of a fleet.
* **anti-entropy** (:meth:`CacheSync.anti_entropy`): while idle,
  diff key lists against each peer and pull whatever is missing, so
  results and witness traces eventually live everywhere even if no
  submit ever asks for them.

A duplicate submitted to a peer right after a job completes is a
cache hit through pull-on-miss; delivering the entry eagerly on
completion saved no measurable latency over that pull, so the fleet
does not push.

A peer being down is never an error -- sync is opportunistic; the
local daemon can always fall back to doing the work itself.
"""

from __future__ import annotations

import pathlib
import re
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.execution import ExecutionConfig
from ..obs.instrument import Instrumentation
from ..service.cache import RESULT_CACHE_SUFFIX, ResultCacheError
from ..service.daemon import CheckingService, resolve_spec
from ..service.jobs import Job
from ..trace.format import TRACE_SUFFIX, TraceFormatError, TraceRecord
from .client import ServiceClient, ServiceClientError

_KEY_RE = re.compile(r"^[0-9a-f]{64}$")
_TRACE_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def job_cache_key(job: Job) -> Optional[str]:
    """The result-cache key of the daemon's check of ``job``: its
    plan's key under the default :class:`ExecutionConfig`, which is
    what the daemon runs jobs with.  ``None`` if the spec does not
    resolve here -- the job will fail properly when run, not during
    sync."""
    try:
        program = resolve_spec(job.spec)
    except Exception:  # noqa: BLE001 - sync must never break the claim loop
        return None
    return job.plan.cache_key(program, ExecutionConfig())


class CacheSync:
    """Pulls missing cache entries and traces from peer daemons."""

    def __init__(
        self,
        service: CheckingService,
        peers: Sequence[str] = (),
        obs: Optional[Instrumentation] = None,
        client_factory: Callable[[str], ServiceClient] = ServiceClient,
        timeout: float = 5.0,
    ) -> None:
        self.service = service
        self.obs = obs
        self.clients: List[ServiceClient] = [
            client_factory(peer) for peer in peers
        ]
        for client in self.clients:
            # Peer fetches are opportunistic: fail fast, retry little.
            client.timeout = min(client.timeout, timeout)
            client.retries = min(client.retries, 1)

    # -- installing fetched objects ------------------------------------------

    def _store_entry(self, key: str, entry: Any, source: str) -> bool:
        """Install one fetched cache entry, if it decodes as the local
        cache's own entry for ``key``: a malformed one would fail every
        job of its plan for good."""
        try:
            self.service.cache.install(key, entry)
        except ResultCacheError:
            return False
        if self.obs is not None:
            self.obs.cache_sync_hit(key, source, kind="result")
        return True

    def _store_trace(self, name: str, trace: Any, source: str) -> bool:
        """Install one fetched witness trace, if it decodes as one."""
        if not _TRACE_RE.match(name) or not name.endswith(TRACE_SUFFIX):
            return False
        try:
            record = TraceRecord.from_json(trace)
        except TraceFormatError:
            return False
        record.save(pathlib.Path(self.service.traces_dir) / name)
        if self.obs is not None:
            self.obs.cache_sync_hit(name, source, kind="trace")
        return True

    # -- pull-on-miss --------------------------------------------------------

    def pull_for_job(self, job: Job) -> Optional[str]:
        """Fetch ``job``'s exact cache entry from a peer, if missing
        locally; returns the key that was installed, else ``None``.

        Called by the fleet claim loop just before running a job: on
        success the checker's own cache lookup hits and the job is
        served without exploration.
        """
        key = job_cache_key(job)
        if key is None or not self.clients:
            return None
        if self.service.cache.path_for(key).exists():
            return None  # already warm; nothing to pull
        for client in self.clients:
            try:
                entry = client.cache_entry(key)
            except ServiceClientError:
                continue  # miss there too, or the peer is down
            if self._store_entry(key, entry, client.base_url):
                return key
        return None

    # -- anti-entropy --------------------------------------------------------

    def _local_keys(self) -> set:
        root = self.service.cache.root
        if not root.is_dir():
            return set()
        return {
            p.name[: -len(RESULT_CACHE_SUFFIX)]
            for p in root.iterdir()
            if p.name.endswith(RESULT_CACHE_SUFFIX)
        }

    def _local_traces(self) -> set:
        root = pathlib.Path(self.service.traces_dir)
        if not root.is_dir():
            return set()
        return {p.name for p in root.iterdir() if p.name.endswith(TRACE_SUFFIX)}

    def anti_entropy(self) -> Dict[str, int]:
        """One sweep: pull every cache entry and trace a peer has and
        we do not.  Returns ``{"results": n, "traces": n}`` pulled.
        """
        pulled = {"results": 0, "traces": 0}
        for client in self.clients:
            try:
                remote_keys = client.cache_keys()
                remote_traces = client.trace_names()
            except ServiceClientError:
                continue  # peer down; next sweep will catch up
            have = self._local_keys()
            for key in remote_keys:
                if key in have or not _KEY_RE.match(key):
                    continue
                try:
                    entry = client.cache_entry(key)
                except ServiceClientError:
                    continue
                if self._store_entry(key, entry, client.base_url):
                    pulled["results"] += 1
            have_traces = self._local_traces()
            for name in remote_traces:
                if name in have_traces:
                    continue
                try:
                    trace = client.trace(name)
                except ServiceClientError:
                    continue
                if self._store_trace(name, trace, client.base_url):
                    pulled["traces"] += 1
        return pulled
