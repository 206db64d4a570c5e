"""The checking service daemon: ``repro serve``.

One directory is the whole service::

    <root>/
      jobs.jsonl        the durable job queue (repro.service.jobs)
      checkpoints/      one live checkpoint per job (repro.service.checkpoint)
      cache/            content-addressed results (repro.service.cache)
      results/          one JSON report per finished job
      traces/           witness-trace corpus shared by every job

The daemon folds the journal, requeues whatever a previous daemon left
running (:meth:`~repro.service.jobs.JobQueue.recover`), then loops:
claim the best queued job, resolve its program spec, and run
:meth:`~repro.chess.checker.ChessChecker.check` with the job's plan
plus the service's durability plumbing -- a per-job checkpoint file,
the shared result cache, and the shared trace corpus.  Killing the
daemon (or its worker processes) at any point therefore loses no
work: on restart the job is requeued by the journal and its search
resumes from the checkpoint; a resubmission of finished work is
served from the cache without exploring anything.

A failed job is requeued until it exhausts ``max_attempts``; the
failure log accumulates in the journal (``repro status`` shows the
latest error).
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Dict, List, Optional, Union

from ..chess.checker import ChessChecker, CheckResult
from ..core.program import Program
from ..errors import ReproError
from ..obs.instrument import Instrumentation
from .cache import ResultCache
from .checkpoint import CHECKPOINT_SUFFIX, Checkpointer
from .jobs import Job, JobQueue

RESULT_SUFFIX = ".json"


def resolve_spec(spec: str) -> Program:
    """Build a program from a job spec: :func:`repro.programs.resolve_spec`,
    imported on first use so importing the service loads no program."""
    from ..programs import resolve_spec as resolve

    return resolve(spec)


class CheckingService:
    """Dispatches queued jobs to the checker (see module docstring)."""

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        max_attempts: int = 3,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.queue = JobQueue(self.root)
        self.results_dir = self.root / "results"
        self.checkpoints_dir = self.root / "checkpoints"
        self.traces_dir = self.root / "traces"
        self.max_attempts = max(1, max_attempts)
        self.obs = obs
        self.cache = ResultCache(self.root / "cache")

    # -- paths ---------------------------------------------------------------

    def checkpoint_path(self, job: Job) -> pathlib.Path:
        return self.checkpoints_dir / f"{job.id}{CHECKPOINT_SUFFIX}"

    def result_path(self, job_id: str) -> pathlib.Path:
        return self.results_dir / f"{job_id}{RESULT_SUFFIX}"

    def load_result(self, job_id: str) -> Dict[str, Any]:
        path = self.result_path(job_id)
        try:
            return json.loads(path.read_text())
        except OSError as exc:
            raise ReproError(f"no result for {job_id}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ReproError(f"result for {job_id} is corrupt: {exc}") from exc

    # -- serving -------------------------------------------------------------

    def serve(
        self,
        once: bool = False,
        poll_interval: float = 0.2,
        max_jobs: Optional[int] = None,
    ) -> int:
        """Process queued jobs; returns how many were handled.

        ``once`` drains the queue and returns instead of idling for
        new submissions -- the mode CI and the tests use.
        """
        self.queue.recover()
        handled = 0
        while True:
            if max_jobs is not None and handled >= max_jobs:
                return handled
            job = self.queue.claim()
            if job is None:
                if once:
                    return handled
                time.sleep(poll_interval)
                continue
            self._handle(job)
            handled += 1

    def _handle(self, job: Job) -> None:
        try:
            result = self.run_job(job)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self.queue.fail(
                job.id, str(exc), requeue=job.attempts < self.max_attempts
            )
            return
        path = self.write_result(job, result)
        cache_hit = bool(result.search.extras.get("cache_hit"))
        self.queue.complete(job.id, result_path=str(path), cache_hit=cache_hit)
        # The search is decided; its checkpoint has nothing to resume.
        self.clear_checkpoint(job)

    def clear_checkpoint(self, job: Job) -> None:
        Checkpointer(self.checkpoint_path(job), {}).clear()

    def run_job(self, job: Job) -> CheckResult:
        return ChessChecker(resolve_spec(job.spec)).check(
            job.plan,
            trace_dir=self.traces_dir,
            trace_spec=job.spec,
            obs=self.obs,
            checkpoint=self.checkpoint_path(job),
            cache=self.cache,
        )

    def write_result(self, job: Job, result: CheckResult) -> pathlib.Path:
        search = result.search
        bugs: List[Dict[str, Any]] = [
            {
                "kind": bug.kind.value,
                "message": bug.message,
                "preemptions": bug.preemptions,
                "schedule_length": len(bug.schedule),
            }
            for bug in search.bugs
        ]
        payload = {
            "format": "repro-service-result",
            "version": 1,
            "job": job.id,
            "spec": job.spec,
            "program": result.program,
            "completed": search.completed,
            "stop_reason": search.stop_reason,
            "certified_bound": result.certified_bound,
            "executions": result.executions,
            "transitions": result.transitions,
            "distinct_states": result.distinct_states,
            "found_bug": result.found_bug,
            "bugs": bugs,
            "cache_hit": bool(search.extras.get("cache_hit")),
            "resumed": bool(search.extras.get("resumed")),
        }
        self.results_dir.mkdir(parents=True, exist_ok=True)
        path = self.result_path(job.id)
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return path
