"""A durable job queue over an append-only JSONL journal.

The queue's entire state is the fold of ``jobs.jsonl``: every mutation
(``submitted``, ``started``, ``completed``, ``failed``, ``requeued``)
is one appended, fsynced line.  A :class:`JobQueue` keeps its fold in
memory and, on every call, folds only the records appended since its
last one -- so separate processes still see each other's events, and
any fresh process rebuilds exactly the same state from the file.  That
makes the queue trivially crash-safe -- a killed daemon loses at most
the *acknowledgement* of work, never the work itself:
:meth:`JobQueue.recover` finds jobs stuck ``running`` with no live
owner and requeues them.  Re-running a recovered job is cheap by
construction, because the daemon gives every job a durable checkpoint
file (:mod:`repro.service.checkpoint`) and a shared result cache
(:mod:`repro.service.cache`).

Scheduling is by ``(-priority, submission order)``; submissions are
deduplicated against *active* (queued or running) jobs with the same
work description, so hammering ``repro submit`` is idempotent.

**Fleet mode** (see :mod:`repro.net.lease`) adds lease events to the
same journal: ``claimed``/``renewed``/``lease_expired`` carry a
*fencing token* -- a per-job monotonic counter -- and the fold only
honours the event whose fence matches the job's current lease.  Two
daemons racing to claim the same job both append, but journal order
arbitrates deterministically: the first ``claimed`` wins and the
second is a no-op.  A ``completed``/``failed`` event carrying a stale
fence (a daemon finishing work whose lease was taken over) is likewise
ignored, so a job's effective completion happens exactly once.

**Torn tails.**  A crash in the middle of an append can leave a
partial final line with no terminating newline.  Such a record was
never committed: the fold ignores it, and the next append (or
:meth:`JobQueue.recover`) truncates the journal back to the last valid
record.  A newline-*terminated* garbage line is real corruption and
raises :class:`JobQueueError` on every call until the journal is
fixed.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
from copy import copy
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..errors import ReproError
from ..search.plan import CheckPlan

JOURNAL_NAME = "jobs.jsonl"

#: Job lifecycle states (the fold of the journal's event stream).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class JobQueueError(ReproError):
    """The journal is malformed or an operation is invalid."""


@dataclass
class Job:
    """One unit of checking work and its current lifecycle state."""

    id: str
    spec: str
    priority: int = 0
    #: What the job checks (:class:`~repro.search.plan.CheckPlan`).
    plan: CheckPlan = CheckPlan()
    #: Lifecycle, maintained by the journal fold -- never set directly.
    status: str = QUEUED
    attempts: int = 0
    seq: int = 0
    result_path: Optional[str] = None
    error: Optional[str] = None
    cache_hit: bool = False
    #: Lease state (fleet mode only; see repro.net.lease).  ``fence``
    #: is the per-job monotonic fencing token, never reset: each new
    #: claim must carry exactly ``fence + 1``.
    owner: Optional[str] = None
    fence: int = 0
    lease_expires: Optional[float] = None

    def work_key(self) -> Tuple[str, CheckPlan]:
        """What makes two submissions "the same work" for dedup."""
        return (self.spec, self.plan)

    def identity(self) -> str:
        """The content address of this job's work: the SHA-256 of its
        sorted-JSON work description.  Two submissions with the same
        identity are the same work, which is what makes resubmits over
        the wire idempotent (see :mod:`repro.net`)."""
        payload = {"spec": self.spec, **self.plan.to_json()}
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()

    def to_json(self) -> Dict[str, Any]:
        """Every field, the plan in its flat JSON form: the job record
        of ``repro status --json`` and the wire."""
        data: Dict[str, Any] = {}
        for item in dataclass_fields(self):
            value = getattr(self, item.name)
            if item.name == "plan":
                data.update(value.to_json())
            else:
                data[item.name] = value
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Job":
        """The job a :meth:`to_json` record describes (other keys are
        ignored)."""
        known = {item.name for item in dataclass_fields(cls)} - {"plan"}
        return cls(
            plan=CheckPlan.from_json(data, record=True),
            **{key: value for key, value in data.items() if key in known},
        )

    def describe(self) -> str:
        extra = ""
        if self.status == DONE and self.cache_hit:
            extra = " (cache hit)"
        elif self.status == FAILED and self.error:
            extra = f" ({self.error})"
        return (
            f"{self.id}  {self.status:<7}  prio={self.priority}  "
            f"attempts={self.attempts}  {self.spec}{extra}"
        )


#: What a ``submitted`` record carries besides the plan: lifecycle and
#: lease fields are derived from later events.
_SUBMITTED = ("id", "spec", "priority", "seq")


def _fence_of(event: Dict[str, Any]) -> int:
    try:
        return int(event.get("fence", 0))
    except (TypeError, ValueError):
        return -1


def _expires_of(event: Dict[str, Any]) -> Optional[float]:
    value = event.get("expires")
    try:
        return float(value) if value is not None else None
    except (TypeError, ValueError):
        return None


def _fence_current(event: Dict[str, Any], job: Job) -> bool:
    """Whether a lifecycle event speaks for the job's current lease.

    Legacy events carry no fence and are always honoured (the
    single-daemon topology has no contention to arbitrate).  A fenced
    event is honoured only when its token matches: a daemon finishing
    work whose lease was expired and re-claimed appends a stale fence,
    which folds to a no-op -- the "exactly once" half of fencing.
    """
    if "fence" not in event:
        return True
    return _fence_of(event) == job.fence


def _parse_line(line: str) -> Optional[Dict[str, Any]]:
    """One journal record, or ``None`` if the line is not one."""
    try:
        event = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(event, dict) or "event" not in event:
        return None
    return event


def _apply(jobs: Dict[str, Job], event: Dict[str, Any]) -> None:
    """Fold one journal record into the job table.

    Raises ``ValueError``/``TypeError`` for a record that cannot be
    folded, before changing anything.
    """
    kind = event["event"]
    if kind == "submitted":
        data = event.get("job")
        if not isinstance(data, dict) or "id" not in data:
            raise ValueError("submitted event without a job object")
        job = Job(
            id=str(data["id"]),
            spec=data.get("spec"),
            priority=int(data.get("priority") or 0),
            plan=CheckPlan.from_json(data, record=True),
            seq=int(data.get("seq", 0)),
        )
        jobs[job.id] = job
        return
    job = jobs.get(str(event.get("id")))
    if job is None:
        # An event for an unknown job: tolerate (a truncated
        # journal head) rather than refuse to serve the rest.
        return
    if kind == "started":
        job.status = RUNNING
        job.attempts += 1
    elif kind == "claimed":
        # A lease claim is honoured only on a queued job and only with
        # the next fencing token; the loser of a two-daemon race
        # appends a claim that fails one of the two tests and folds to
        # a no-op.
        if job.status == QUEUED and _fence_of(event) == job.fence + 1:
            job.status = RUNNING
            job.attempts += 1
            job.owner = str(event.get("daemon", ""))
            job.fence += 1
            job.lease_expires = _expires_of(event)
    elif kind == "renewed":
        if (
            job.status == RUNNING
            and _fence_of(event) == job.fence
            and str(event.get("daemon", "")) == job.owner
        ):
            job.lease_expires = _expires_of(event)
    elif kind == "lease_expired":
        # A takeover: some daemon observed the lease deadline pass and
        # requeued the job.  The fence check means an expiry raced
        # against a newer claim cannot clobber it.
        if job.status == RUNNING and _fence_of(event) == job.fence:
            job.status = QUEUED
            job.owner = None
            job.lease_expires = None
            job.error = event.get("error", job.error)
    elif kind == "completed":
        if _fence_current(event, job):
            job.status = DONE
            job.result_path = event.get("result_path")
            job.cache_hit = bool(event.get("cache_hit"))
            job.owner = None
            job.lease_expires = None
    elif kind == "failed":
        if _fence_current(event, job):
            job.status = FAILED
            job.error = event.get("error")
            job.owner = None
            job.lease_expires = None
    elif kind == "requeued":
        if _fence_current(event, job):
            job.status = QUEUED
            job.error = event.get("error", job.error)
            job.owner = None
            job.lease_expires = None


class JobQueue:
    """Fold-of-a-journal job queue (see module docstring).

    Not safe for *concurrent writers*: the intended topology is one
    ``repro serve`` daemon owning the journal, with ``submit``/
    ``status`` CLI invocations running between daemon polls.  Each
    public method first folds the records appended since its previous
    call, so separate processes always see each other's events.
    Threads may share one queue: a lock guards the cached fold, and
    every :class:`Job` a method returns is a copy the caller owns.
    """

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self.journal = self.root / JOURNAL_NAME
        # The cached fold: the job table as of byte ``_offset`` (just
        # past the last folded record, line ``_lineno``) of the file
        # ``_file`` names by ``(st_dev, st_ino)``.  ``_size`` is how
        # much of that file the last fold saw, torn tail included.
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._file: Optional[Tuple[int, int]] = None
        self._offset = 0
        self._lineno = 0
        self._size = 0

    # -- journal primitives (callers hold ``_lock``) -------------------------

    def _reset(self, file: Optional[Tuple[int, int]]) -> None:
        self._jobs = {}
        self._file = file
        self._offset = 0
        self._lineno = 0
        self._size = 0

    def _sync(self) -> None:
        """Fold the records appended since the last call.

        A record is committed iff its line is newline-terminated:
        appends write line+newline in one call, so only a crash
        mid-append leaves an *unterminated* tail, and such a tail --
        whatever its bytes -- was never acknowledged and stays beyond
        ``_offset`` (then truncated by :meth:`repair`).  A
        newline-terminated line that fails to parse is real corruption
        and raises; the offset stops in front of it, so it raises
        again on every call and the records before it fold only once.
        The fold restarts from byte 0 when the journal was replaced,
        shrank, or no longer ends a record where the fold stopped.
        """
        try:
            with open(self.journal, "rb") as fh:
                stat = os.fstat(fh.fileno())
                file = (stat.st_dev, stat.st_ino)
                stale = file != self._file or stat.st_size < self._offset
                if not stale and self._offset:
                    fh.seek(self._offset - 1)
                    stale = fh.read(1) != b"\n"
                if stale:
                    self._reset(file)
                fh.seek(self._offset)
                tail = fh.read()
        except FileNotFoundError:
            self._reset(None)
            return
        except OSError as exc:
            raise JobQueueError(f"cannot read journal {self.journal}: {exc}") from exc
        base = self._offset
        self._size = base + len(tail)
        start = 0
        while True:
            end = tail.find(b"\n", start)
            if end == -1:
                return
            line = tail[start:end].decode("utf-8", errors="replace").strip()
            if line:
                event = _parse_line(line)
                try:
                    if event is None:
                        raise ValueError("not a valid journal record")
                    _apply(self._jobs, event)
                except (TypeError, ValueError) as exc:
                    raise JobQueueError(
                        f"{self.journal}:{self._lineno + 1}: {exc}"
                    ) from exc
            self._lineno += 1
            start = end + 1
            self._offset = base + start

    def _truncate_torn_tail(self) -> bool:
        """Cut what the last :meth:`_sync` saw beyond the last record."""
        if self._size <= self._offset:
            return False
        with open(self.journal, "r+b") as fh:
            fh.truncate(self._offset)
            fh.flush()
            os.fsync(fh.fileno())
        self._size = self._offset
        return True

    def _write(self, event: Dict[str, Any]) -> None:
        """Append one record after a :meth:`_sync`; the next sync folds it."""
        self.root.mkdir(parents=True, exist_ok=True)
        self._truncate_torn_tail()
        line = json.dumps(event, sort_keys=True)
        with open(self.journal, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def _append(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._sync()
            self._write(event)

    def _best_queued(self) -> Optional[Job]:
        queued = (job for job in self._jobs.values() if job.status == QUEUED)
        return min(queued, key=lambda job: (-job.priority, job.seq), default=None)

    def repair(self) -> bool:
        """Truncate a torn final record (see :meth:`_sync`); returns
        whether anything was cut."""
        with self._lock:
            self._sync()
            return self._truncate_torn_tail()

    # -- public API ----------------------------------------------------------

    def select(self, predicate: Callable[[Job], bool]) -> List[Job]:
        """Copies of the jobs ``predicate`` accepts, in submission order.

        ``predicate`` sees the cached jobs themselves and must not
        change them; only the accepted ones are copied.
        """
        with self._lock:
            self._sync()
            chosen = [job for job in self._jobs.values() if predicate(job)]
        return [copy(job) for job in sorted(chosen, key=lambda job: job.seq)]

    def jobs(self) -> List[Job]:
        """Every known job, in submission order."""
        return self.select(lambda job: True)

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            self._sync()
            job = self._jobs.get(job_id)
            return None if job is None else copy(job)

    def next_queued(self) -> Optional[Job]:
        """The job :meth:`claim` would take next, or ``None``."""
        with self._lock:
            self._sync()
            job = self._best_queued()
            return None if job is None else copy(job)

    def submit(
        self,
        spec: str,
        priority: int = 0,
        **fields: Any,
    ) -> Job:
        """Append a new job, or return the active duplicate if any.

        The work is the plan whose flat JSON fields are ``fields``
        (``max_bound=2``, ...; see
        :meth:`~repro.search.plan.CheckPlan.to_json`).  A plan the
        checker would refuse raises
        :class:`~repro.search.plan.PlanError` and journals nothing.
        """
        candidate = Job(
            id="", spec=spec, priority=priority, plan=CheckPlan.from_json(fields)
        )
        work = candidate.work_key()
        with self._lock:
            self._sync()
            jobs = self._jobs.values()
            active = [
                job
                for job in jobs
                if job.status in (QUEUED, RUNNING) and job.work_key() == work
            ]
            if active:
                return copy(min(active, key=lambda job: job.seq))
            seq = 1 + max((job.seq for job in jobs), default=0)
            candidate.id = f"job-{seq:06d}"
            candidate.seq = seq
            payload = {name: getattr(candidate, name) for name in _SUBMITTED}
            payload.update(candidate.plan.to_json())
            self._write({"event": "submitted", "job": payload})
        return candidate

    def claim(self) -> Optional[Job]:
        """Take the best queued job and mark it running."""
        with self._lock:
            self._sync()
            best = self._best_queued()
            if best is None:
                return None
            self._write({"event": "started", "id": best.id})
            job = copy(best)
        job.status = RUNNING
        job.attempts += 1
        return job

    def complete(
        self,
        job_id: str,
        result_path: Optional[str] = None,
        cache_hit: bool = False,
        daemon: Optional[str] = None,
        fence: Optional[int] = None,
    ) -> None:
        event: Dict[str, Any] = {
            "event": "completed",
            "id": job_id,
            "result_path": result_path,
            "cache_hit": cache_hit,
        }
        if fence is not None:
            event["fence"] = fence
            event["daemon"] = daemon
        self._append(event)

    def fail(
        self,
        job_id: str,
        error: str,
        requeue: bool = False,
        daemon: Optional[str] = None,
        fence: Optional[int] = None,
    ) -> None:
        event: Dict[str, Any] = {
            "event": "requeued" if requeue else "failed",
            "id": job_id,
            "error": error,
        }
        if fence is not None:
            event["fence"] = fence
            event["daemon"] = daemon
        self._append(event)

    # -- lease events (fleet mode; see repro.net.lease) ----------------------

    def append_claim(
        self, job_id: str, daemon: str, fence: int, expires: float
    ) -> None:
        self._append(
            {
                "event": "claimed",
                "id": job_id,
                "daemon": daemon,
                "fence": fence,
                "expires": expires,
            }
        )

    def append_renewal(
        self, job_id: str, daemon: str, fence: int, expires: float
    ) -> None:
        self._append(
            {
                "event": "renewed",
                "id": job_id,
                "daemon": daemon,
                "fence": fence,
                "expires": expires,
            }
        )

    def append_expiry(
        self, job_id: str, fence: int, daemon: str, error: str
    ) -> None:
        """Journal a lease takeover: ``daemon`` observed the lease
        deadline pass and is returning the job to the queue."""
        self._append(
            {
                "event": "lease_expired",
                "id": job_id,
                "fence": fence,
                "daemon": daemon,
                "error": error,
            }
        )

    def recover(self) -> List[Job]:
        """Requeue every job left ``running`` by a dead daemon.

        Called on daemon startup, before any claim: at that moment no
        worker legitimately owns a job, so anything still marked
        running is an orphan of a crash.  The requeued jobs resume
        from their durable checkpoints rather than starting over.
        """
        self.repair()
        recovered: List[Job] = []
        for job in self.select(lambda job: job.status == RUNNING):
            self.fail(job.id, "daemon died while running", requeue=True)
            job.status = QUEUED
            recovered.append(job)
        return recovered
