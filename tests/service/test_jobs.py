"""The durable JSONL job queue: journal fold, dedup, priorities,
crash recovery."""

from __future__ import annotations

import json
import os
import random
import sys
import threading
import time

import pytest

from repro.search.plan import CheckPlan, PlanError
from repro.service.jobs import JOURNAL_NAME, Job, JobQueue, JobQueueError


def test_submit_assigns_sequential_ids_and_persists(tmp_path):
    queue = JobQueue(tmp_path)
    first = queue.submit("toy:racy-counter")
    second = queue.submit("bluetooth", max_bound=2)
    assert [first.id, second.id] == ["job-000001", "job-000002"]
    # A fresh instance (another process) folds the same state.
    fresh = JobQueue(tmp_path)
    assert [job.id for job in fresh.jobs()] == [first.id, second.id]
    assert fresh.get(second.id).plan.max_bound == 2


def test_submit_deduplicates_active_work(tmp_path):
    queue = JobQueue(tmp_path)
    job = queue.submit("bluetooth", max_bound=2)
    assert queue.submit("bluetooth", max_bound=2).id == job.id
    # Different knobs are different work.
    assert queue.submit("bluetooth", max_bound=1).id != job.id
    # Priority is scheduling, not work: it does not defeat dedup.
    assert queue.submit("bluetooth", max_bound=2, priority=9).id == job.id


def test_finished_work_can_be_resubmitted(tmp_path):
    queue = JobQueue(tmp_path)
    job = queue.submit("bluetooth")
    queue.claim()
    queue.complete(job.id, result_path="r.json", cache_hit=False)
    again = queue.submit("bluetooth")
    assert again.id != job.id


def test_claim_order_is_priority_then_submission(tmp_path):
    queue = JobQueue(tmp_path)
    low = queue.submit("toy:racy-counter")
    high = queue.submit("bluetooth", priority=5)
    later = queue.submit("toy:deadlock")
    assert queue.claim().id == high.id
    assert queue.claim().id == low.id
    assert queue.claim().id == later.id
    assert queue.claim() is None


def test_fail_with_requeue_returns_the_job_to_the_queue(tmp_path):
    queue = JobQueue(tmp_path)
    job = queue.submit("bluetooth")
    claimed = queue.claim()
    assert claimed.attempts == 1
    queue.fail(job.id, "worker crashed", requeue=True)
    assert queue.get(job.id).status == "queued"
    reclaimed = queue.claim()
    assert reclaimed.id == job.id and reclaimed.attempts == 2
    queue.fail(job.id, "crashed again", requeue=False)
    final = queue.get(job.id)
    assert final.status == "failed"
    assert final.error == "crashed again"


def test_recover_requeues_orphaned_running_jobs(tmp_path):
    queue = JobQueue(tmp_path)
    orphan = queue.submit("bluetooth")
    done = queue.submit("toy:racy-counter")
    queue.claim()  # orphan -> running
    queue.claim()
    queue.complete(done.id)
    recovered = JobQueue(tmp_path).recover()
    assert [job.id for job in recovered] == [orphan.id]
    after = JobQueue(tmp_path)
    assert after.get(orphan.id).status == "queued"
    assert after.get(done.id).status == "done"


def test_malformed_journal_is_a_queue_error(tmp_path):
    queue = JobQueue(tmp_path)
    queue.submit("bluetooth")
    journal = tmp_path / JOURNAL_NAME
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write("not json\n")
    with pytest.raises(JobQueueError):
        queue.jobs()


def test_events_for_unknown_jobs_are_tolerated(tmp_path):
    journal = tmp_path / JOURNAL_NAME
    tmp_path.mkdir(parents=True, exist_ok=True)
    journal.write_text(json.dumps({"event": "completed", "id": "job-000099"}) + "\n")
    queue = JobQueue(tmp_path)
    assert queue.jobs() == []
    job = queue.submit("bluetooth")
    assert queue.get(job.id).status == "queued"


def test_work_key_excludes_priority():
    a = Job(id="a", spec="x", priority=0, plan=CheckPlan(max_bound=1))
    b = Job(id="b", spec="x", priority=7, plan=CheckPlan(max_bound=1))
    assert a.work_key() == b.work_key()
    assert a.work_key() != Job(id="c", spec="x", plan=CheckPlan(max_bound=2)).work_key()


def test_torn_final_line_is_ignored_and_truncated(tmp_path):
    queue = JobQueue(tmp_path)
    first = queue.submit("bluetooth")
    second = queue.submit("toy:racy-counter")
    journal = tmp_path / JOURNAL_NAME
    intact = journal.read_bytes()
    # A crash mid-append leaves arbitrary unterminated bytes.  The
    # record was never committed: the fold ignores it...
    with open(journal, "ab") as fh:
        fh.write(b'{"event": "completed", "id": "job-0')
    fresh = JobQueue(tmp_path)
    assert [job.id for job in fresh.jobs()] == [first.id, second.id]
    assert fresh.get(first.id).status == "queued"
    # ...and repair() truncates the journal back to the last record.
    assert fresh.repair() is True
    assert journal.read_bytes() == intact
    assert fresh.repair() is False


def test_torn_tail_that_parses_is_still_uncommitted(tmp_path):
    # Even a tail that happens to be valid JSON is ignored without its
    # terminating newline: the append never completed, and honouring
    # it would let the next append corrupt the journal by concatenation.
    queue = JobQueue(tmp_path)
    job = queue.submit("bluetooth")
    journal = tmp_path / JOURNAL_NAME
    with open(journal, "ab") as fh:
        fh.write(json.dumps({"event": "completed", "id": job.id}).encode())
    assert JobQueue(tmp_path).get(job.id).status == "queued"


def test_append_after_torn_tail_repairs_first(tmp_path):
    queue = JobQueue(tmp_path)
    job = queue.submit("bluetooth")
    journal = tmp_path / JOURNAL_NAME
    with open(journal, "ab") as fh:
        fh.write(b"garbage without a newline")
    # The next mutation truncates the tail before appending, so the
    # journal stays parseable end to end.
    queue.complete(job.id, result_path="r.json")
    lines = journal.read_text().splitlines()
    assert all(json.loads(line)["event"] for line in lines)
    assert JobQueue(tmp_path).get(job.id).status == "done"


def test_recover_repairs_a_torn_tail(tmp_path):
    queue = JobQueue(tmp_path)
    queue.submit("bluetooth")
    journal = tmp_path / JOURNAL_NAME
    with open(journal, "ab") as fh:
        fh.write(b'{"torn":')
    recovered = JobQueue(tmp_path).recover()
    assert recovered == []
    assert journal.read_bytes().endswith(b"\n")


# -- the incremental fold ----------------------------------------------------


def _reference_fold(journal):
    """The job table, folded from scratch by a parser independent of
    JobQueue's: every newline-terminated record, in order."""
    jobs = {}
    raw = journal.read_bytes() if journal.exists() else b""
    for line in raw.split(b"\n")[:-1]:  # what follows the last \n is torn
        if not line.strip():
            continue
        event = json.loads(line)
        kind = event["event"]
        if kind == "submitted":
            job = Job.from_json(event["job"])
            jobs[job.id] = job
            continue
        job = jobs.get(event["id"])
        if job is None:
            continue
        fence = event.get("fence", job.fence)
        if kind == "started":
            job.status = "running"
            job.attempts += 1
        elif kind == "claimed":
            if job.status == "queued" and fence == job.fence + 1:
                job.status = "running"
                job.attempts += 1
                job.owner = event["daemon"]
                job.fence = fence
                job.lease_expires = event["expires"]
        elif kind == "renewed":
            if (
                job.status == "running"
                and fence == job.fence
                and event["daemon"] == job.owner
            ):
                job.lease_expires = event["expires"]
        elif kind == "lease_expired":
            if job.status == "running" and fence == job.fence:
                job.status = "queued"
                job.owner = job.lease_expires = None
                job.error = event["error"]
        elif fence == job.fence:
            job.owner = job.lease_expires = None
            if kind == "completed":
                job.status = "done"
                job.result_path = event["result_path"]
                job.cache_hit = event["cache_hit"]
            elif kind == "failed":
                job.status = "failed"
                job.error = event["error"]
            elif kind == "requeued":
                job.status = "queued"
                job.error = event["error"]
    return sorted(jobs.values(), key=lambda job: job.seq)


def _random_operation(rng, queue, journal):
    """One random queue operation (or outside edit of the journal)."""
    jobs = _reference_fold(journal)
    job = rng.choice(jobs) if jobs else None
    kind = rng.choice(
        ["submit"] * 4
        + ["claim"] * 2
        + ["complete", "fail", "requeue", "lease", "renew", "expire"]
        + ["fenced", "torn", "replace"]
    )
    if kind == "submit" or job is None:
        queue.submit(rng.choice(["a", "b", "c", "d"]), priority=rng.randrange(3))
    elif kind == "claim":
        queue.claim()
    elif kind == "complete":
        queue.complete(job.id, result_path=f"{job.id}.json", cache_hit=rng.random() < 0.5)
    elif kind in ("fail", "requeue"):
        queue.fail(job.id, f"error {rng.randrange(9)}", requeue=kind == "requeue")
    elif kind == "lease":
        fence = job.fence + rng.choice([0, 1, 1, 2])
        queue.append_claim(job.id, rng.choice(["alpha", "beta"]), fence, rng.random())
    elif kind == "renew":
        queue.append_renewal(job.id, job.owner or "alpha", job.fence, rng.random())
    elif kind == "expire":
        queue.append_expiry(job.id, job.fence - rng.randrange(2), "beta", "lease lost")
    elif kind == "fenced":
        fence = job.fence - rng.randrange(2)
        if rng.random() < 0.5:
            queue.complete(job.id, result_path="r.json", daemon="alpha", fence=fence)
        else:
            queue.fail(job.id, "stale", requeue=rng.random() < 0.5, daemon="beta", fence=fence)
    elif kind == "torn":
        with open(journal, "ab") as fh:
            fh.write(b'{"event": "completed", "id": "' + job.id.encode()[: rng.randrange(9)])
        if rng.random() < 0.5:
            queue.repair()
    else:
        # A rewritten copy renamed over the journal: drop a few records,
        # then pad it past the old length with records for unknown jobs,
        # so only the file's identity tells a cached fold to restart.
        raw = journal.read_bytes()
        lines = raw[: raw.rfind(b"\n") + 1].splitlines(keepends=True)
        copy = b"".join(lines[: max(0, len(lines) - rng.randrange(1, 4))])
        while len(copy) < len(raw):
            copy += json.dumps({"event": "renewed", "id": "job-999999"}).encode() + b"\n"
        replacement = journal.with_name("jobs.jsonl.tmp")
        replacement.write_bytes(copy)
        os.replace(replacement, journal)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_incremental_fold_matches_a_fold_from_scratch(tmp_path, seed):
    rng = random.Random(seed)
    journal = tmp_path / JOURNAL_NAME
    queues = [JobQueue(tmp_path), JobQueue(tmp_path)]
    for _ in range(120):
        _random_operation(rng, rng.choice(queues), journal)
        expected = _reference_fold(journal)
        for queue in queues:
            assert queue.jobs() == expected


@pytest.mark.parametrize(
    "bad_line", ["not json", json.dumps({"event": "submitted"})]
)
def test_corruption_raises_on_every_call_and_folds_nothing_twice(tmp_path, bad_line):
    queue = JobQueue(tmp_path)
    job = queue.submit("bluetooth")
    assert queue.get(job.id).attempts == 0
    journal = tmp_path / JOURNAL_NAME
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"event": "started", "id": job.id}) + "\n")
        fh.write(bad_line + "\n")
    for _ in range(2):
        with pytest.raises(JobQueueError, match=r"jobs\.jsonl:3: "):
            queue.jobs()
    # Cutting the bad line out (in place) heals the queue; the record
    # before it was folded exactly once.
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(b"".join(lines[:2]))
    assert queue.get(job.id).attempts == 1
    assert queue.jobs() == JobQueue(tmp_path).jobs()


def test_journal_rewritten_in_place_is_folded_again(tmp_path):
    queue = JobQueue(tmp_path)
    queue.submit("short")
    assert [job.spec for job in queue.jobs()] == ["short"]
    # Same file, new bytes: where the cached fold stopped is now the
    # middle of a longer record, so the fold starts over.
    other = JobQueue(tmp_path / "other")
    other.submit("a-much-longer-spec")
    with open(tmp_path / JOURNAL_NAME, "r+b") as fh:
        fh.write(other.journal.read_bytes())
    assert [job.spec for job in queue.jobs()] == ["a-much-longer-spec"]


def test_returned_jobs_are_copies(tmp_path):
    queue = JobQueue(tmp_path)
    job = queue.submit("bluetooth")
    returned = [
        queue.get(job.id),
        queue.submit("bluetooth"),  # the active duplicate
        queue.jobs()[0],
        queue.claim(),
    ]
    for copy in returned:
        copy.status = "failed"
        copy.attempts = 99
        copy.owner = "someone"
    after = queue.get(job.id)
    assert (after.status, after.attempts, after.owner) == ("running", 1, None)
    assert after == JobQueue(tmp_path).get(job.id)


def test_threads_share_one_queue(tmp_path):
    # Lease renewers and HTTP handlers call the daemon's queue from
    # their own threads; a lost or doubled fold update would show as a
    # fold that differs from a fresh instance's.
    queue = JobQueue(tmp_path)
    first = queue.submit("renewed")
    stop = threading.Event()
    errors = []

    def renew():
        try:
            while not stop.is_set():
                job = queue.get(first.id)
                queue.append_renewal(job.id, "alpha", job.fence, time.time())
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    renewers = [threading.Thread(target=renew) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for renewer in renewers:
            renewer.start()
        for i in range(200):
            queue.submit(f"spec-{i}")
            assert queue.claim() is not None
    finally:
        stop.set()
        for renewer in renewers:
            renewer.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(renewer.is_alive() for renewer in renewers)
    assert errors == []
    jobs = queue.jobs()
    assert len({job.id for job in jobs}) == 201
    assert jobs == JobQueue(tmp_path).jobs()


# -- plan validation at submit -------------------------------------------------


@pytest.mark.parametrize(
    "fields, fragment",
    [
        ({"workers": 2, "state_caching": True}, "state_caching is per-process"),
        ({"max_bound": -1}, "max_bound must be non-negative"),
        ({"workers": 0}, "workers must be at least 1"),
        ({"bound": 2}, "unknown field 'bound'"),
    ],
)
def test_a_refused_plan_is_not_journaled(tmp_path, fields, fragment):
    queue = JobQueue(tmp_path)
    with pytest.raises(PlanError, match=fragment):
        queue.submit("bluetooth", **fields)
    assert not (tmp_path / JOURNAL_NAME).exists()
    assert queue.jobs() == []


def test_a_journaled_refused_plan_still_folds_and_fails_when_run(tmp_path):
    """A journal written before submit refused plans may hold one: it
    folds like any record, and running the job refuses the plan."""
    from repro.service import CheckingService

    record = {
        "id": "job-000001",
        "seq": 1,
        "spec": "bluetooth",
        "priority": 0,
        "workers": 2,
        "state_caching": True,
    }
    tmp_path.mkdir(parents=True, exist_ok=True)
    (tmp_path / JOURNAL_NAME).write_text(
        json.dumps({"event": "submitted", "job": record}) + "\n"
    )
    service = CheckingService(tmp_path, max_attempts=1)
    job = service.queue.get("job-000001")
    assert (job.status, job.plan.workers, job.plan.state_caching) == ("queued", 2, True)
    assert service.serve(once=True) == 1
    failed = service.queue.get("job-000001")
    assert failed.status == "failed"
    assert "state_caching is per-process" in failed.error
