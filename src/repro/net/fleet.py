"""The fleet daemon: lease-fenced claims, an HTTP thread, peer sync.

``FleetDaemon`` is ``repro serve --fleet``: the multi-host topology
where several daemons on different machines share one service root.
Each iteration of its loop:

1. expires stale leases (requeueing a dead peer's jobs -- their
   searches resume from the durable checkpoints, losing nothing);
2. claims the best queued job under a fresh lease, losing gracefully
   if another daemon's claim folded first;
3. asks its peers for the job's exact cache entry (pull-on-miss), so
   work any host has already done becomes a local cache hit;
4. runs the job with a :class:`~repro.net.lease.LeaseRenewer` thread
   keeping the lease alive, then appends a *fenced* completion the
   journal only honours if the lease was never taken over.

While idle it runs anti-entropy sweeps, so caches and trace corpora
converge across hosts even without submit traffic.  The optional
HTTP front-end runs on a daemon thread the whole time; it holds no
state, so clients may hit any daemon in the fleet and see the same
journal-derived truth.
"""

from __future__ import annotations

import os
import pathlib
import socket
import time
from typing import Optional, Sequence, Union

from ..obs.instrument import Instrumentation
from ..service.daemon import CheckingService
from ..service.jobs import Job
from .http_api import HttpFrontend, ServiceAPI
from .lease import DEFAULT_TTL, Lease, LeaseManager, LeaseRenewer
from .sync import CacheSync

#: Seconds between idle anti-entropy sweeps.
SYNC_INTERVAL = 2.0


def default_daemon_id() -> str:
    """host-pid: unique across a fleet sharing one root."""
    return f"{socket.gethostname()}-{os.getpid()}"


class FleetDaemon:
    """One member of a checking fleet (see module docstring)."""

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        daemon_id: Optional[str] = None,
        lease_ttl: float = DEFAULT_TTL,
        http_host: str = "127.0.0.1",
        http_port: Optional[int] = None,
        peers: Sequence[str] = (),
        max_attempts: int = 3,
        obs: Optional[Instrumentation] = None,
        sync_interval: float = SYNC_INTERVAL,
    ) -> None:
        self.daemon_id = daemon_id or default_daemon_id()
        self.service = CheckingService(root, max_attempts=max_attempts, obs=obs)
        self.obs = obs
        self.leases = LeaseManager(
            self.service.queue, self.daemon_id, ttl=lease_ttl, obs=obs
        )
        self.sync = CacheSync(self.service, peers, obs=obs)
        self.sync_interval = sync_interval
        self.frontend: Optional[HttpFrontend] = None
        if http_port is not None:
            api = ServiceAPI(self.service, daemon_id=self.daemon_id, obs=obs)
            self.frontend = HttpFrontend(api, host=http_host, port=http_port)

    @property
    def url(self) -> Optional[str]:
        return self.frontend.url if self.frontend is not None else None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "FleetDaemon":
        """Repair the journal tail and start the HTTP thread."""
        self.service.queue.repair()
        if self.frontend is not None:
            self.frontend.start()
        return self

    def close(self) -> None:
        if self.frontend is not None:
            self.frontend.close()

    # -- the claim loop ------------------------------------------------------

    def serve(
        self,
        once: bool = False,
        poll_interval: float = 0.2,
        max_jobs: Optional[int] = None,
    ) -> int:
        """Process jobs under leases; returns how many this daemon ran.

        ``once`` returns when nothing is queued and no claim can be
        won -- jobs other daemons are actively (and validly) running
        are theirs to finish.
        """
        handled = 0
        last_sweep = 0.0
        while True:
            if max_jobs is not None and handled >= max_jobs:
                return handled
            claimed = self.leases.claim()
            if claimed is None:
                now = time.monotonic()
                if now - last_sweep >= self.sync_interval:
                    self.sync.anti_entropy()
                    last_sweep = now
                if once and self.service.queue.next_queued() is None:
                    return handled
                if not once:
                    time.sleep(poll_interval)
                continue
            job, lease = claimed
            self._handle(job, lease)
            handled += 1

    def _handle(self, job: Job, lease: Lease) -> None:
        # Pull-on-miss: a peer's finished result makes this job a
        # local cache hit before the checker even starts.
        self.sync.pull_for_job(job)
        renewer = LeaseRenewer(self.leases, lease)
        try:
            with renewer:
                result = self.service.run_job(job)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self.leases.fail(
                lease, str(exc), requeue=job.attempts < self.service.max_attempts
            )
            return
        if renewer.lost or not self.leases.owns(lease):
            # The lease was taken over mid-run: someone else owns the
            # job now.  Drop our result -- a fenced completion would
            # fold to a no-op anyway, and the new owner resumes from
            # the checkpoint, so the work is not lost either.
            return
        path = self.service.write_result(job, result)
        cache_hit = bool(result.search.extras.get("cache_hit"))
        if self.leases.complete(
            lease, result_path=str(path), cache_hit=cache_hit
        ):
            self.service.clear_checkpoint(job)
