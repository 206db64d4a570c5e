"""Lease-fenced job claims: many daemons, one journal, no double work.

The single-daemon queue marks a job ``started`` and trusts that only
one process ever claims.  A fleet sharing one service root (say over
NFS) cannot trust that, so fleet daemons claim through *leases*
journaled as ordinary queue events:

``claimed``
    ``(id, daemon, fence, expires)``.  The fold honours a claim only
    on a queued job carrying exactly the next fencing token, so when
    two daemons race, both appends land but journal order arbitrates:
    the first wins, the second folds to a no-op.  The claimant learns
    whether it won by folding the journal again after its append -- the
    append-only file is the lock.
``renewed``
    Pushes ``expires`` forward while the job runs.  A
    :class:`LeaseRenewer` thread does this at ``ttl/3`` so a healthy
    daemon's lease never lapses, however long the search.
``lease_expired``
    A takeover: another daemon observed ``expires`` in the past and
    returned the job to the queue.  The job's next claim carries a
    higher fence, so when the stalled (or resurrected) original owner
    eventually appends its fenced ``completed``, the fold ignores it.
    Work is never *lost* -- the requeued job resumes from its durable
    checkpoint -- and a completion is never honoured *twice*.

Fencing tokens are per-job monotonic counters, never reset, exactly
the scheme distributed lock services use to order lock generations;
here the journal fold is the arbiter, so no clock agreement between
hosts is needed for *correctness* -- wall clocks only decide how
quickly a dead daemon's work is taken over.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..obs.instrument import Instrumentation
from ..service.jobs import QUEUED, RUNNING, Job, JobQueue

#: Default lease time-to-live (seconds).  Renewal happens at ttl/3,
#: so one missed renewal does not forfeit the lease.
DEFAULT_TTL = 5.0


@dataclass
class Lease:
    """One daemon's fenced hold on one job."""

    job_id: str
    daemon: str
    fence: int
    expires: float


class LeaseManager:
    """Claims, renews and releases leases for one daemon.

    Every operation folds the journal's newly appended records first
    and appends after, so concurrent managers on different hosts agree
    on the lease table without any channel besides the journal itself.
    """

    def __init__(
        self,
        queue: JobQueue,
        daemon_id: str,
        ttl: float = DEFAULT_TTL,
        clock: Callable[[], float] = time.time,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.queue = queue
        self.daemon_id = daemon_id
        self.ttl = max(0.1, float(ttl))
        self.clock = clock
        self.obs = obs

    # -- takeover ------------------------------------------------------------

    def expire_stale(self) -> List[Job]:
        """Requeue every job whose lease deadline has passed.

        Jobs ``started`` by a legacy (non-fleet) daemon carry no
        lease and are left alone -- a fleet cannot arbitrate a claim
        that never named its deadline.
        """
        now = self.clock()
        expired: List[Job] = []
        for job in self.queue.select(
            lambda job: job.status == RUNNING
            and job.lease_expires is not None
            and job.lease_expires < now
        ):
            self.queue.append_expiry(
                job.id,
                job.fence,
                self.daemon_id,
                error=f"lease of {job.owner} expired",
            )
            record = self.queue.get(job.id)
            if record is not None and record.status == QUEUED:
                expired.append(record)
                if self.obs is not None:
                    self.obs.lease_takeover(
                        job.id, job.fence, str(job.owner or "")
                    )
        return expired

    # -- claim ---------------------------------------------------------------

    def claim(self) -> Optional[Tuple[Job, Lease]]:
        """Claim the best queued job under a fresh lease, or ``None``.

        ``None`` means either nothing is queued or this daemon lost
        the race for the job it picked; callers just poll again.
        """
        self.expire_stale()
        job = self.queue.next_queued()
        if job is None:
            return None
        fence = job.fence + 1
        expires = self.clock() + self.ttl
        self.queue.append_claim(job.id, self.daemon_id, fence, expires)
        record = self.queue.get(job.id)
        if (
            record is None
            or record.status != RUNNING
            or record.owner != self.daemon_id
            or record.fence != fence
        ):
            return None  # lost the race; the winner's claim folded first
        if self.obs is not None:
            self.obs.lease_claimed(job.id, fence)
        return record, Lease(job.id, self.daemon_id, fence, expires)

    # -- renew / release -----------------------------------------------------

    def owns(self, lease: Lease) -> bool:
        """Whether the journal still shows ``lease`` as current."""
        record = self.queue.get(lease.job_id)
        return (
            record is not None
            and record.status == RUNNING
            and record.owner == lease.daemon
            and record.fence == lease.fence
        )

    def renew(self, lease: Lease) -> bool:
        """Push the lease deadline forward; False if it was lost."""
        if not self.owns(lease):
            return False
        lease.expires = self.clock() + self.ttl
        self.queue.append_renewal(
            lease.job_id, lease.daemon, lease.fence, lease.expires
        )
        if self.obs is not None:
            self.obs.lease_renewed(lease.job_id, lease.fence)
        return True

    def complete(
        self,
        lease: Lease,
        result_path: Optional[str] = None,
        cache_hit: bool = False,
    ) -> bool:
        """Append a fenced completion; False if the fold rejected it
        (the lease was taken over while the job ran)."""
        self.queue.complete(
            lease.job_id,
            result_path=result_path,
            cache_hit=cache_hit,
            daemon=lease.daemon,
            fence=lease.fence,
        )
        record = self.queue.get(lease.job_id)
        return record is not None and record.status == "done"

    def fail(self, lease: Lease, error: str, requeue: bool) -> None:
        self.queue.fail(
            lease.job_id,
            error,
            requeue=requeue,
            daemon=lease.daemon,
            fence=lease.fence,
        )


class LeaseRenewer:
    """A daemon thread keeping one lease alive while its job runs.

    Renewal failure (the lease was expired and re-claimed under us)
    sets :attr:`lost` and stops renewing; the job runner checks the
    flag before treating its result as the job's outcome.
    """

    def __init__(self, manager: LeaseManager, lease: Lease) -> None:
        self.manager = manager
        self.lease = lease
        self.lost = False
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-renewer-{lease.job_id}", daemon=True
        )

    def _run(self) -> None:
        interval = self.manager.ttl / 3.0
        while not self._stop.wait(interval):
            if not self.manager.renew(self.lease):
                self.lost = True
                return

    def __enter__(self) -> "LeaseRenewer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=self.manager.ttl)
