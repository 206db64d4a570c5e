"""The four benchmark workloads: what one batch runs, and how its verdicts are checked.

A *batch* is the unit a workload repeats within a run: the same
operations (one check, or one service job) in the same order every time.
The wall time of each operation, from its start to its checked verdict,
is recorded; ``verdict_s`` sums each operation's fastest time over the
run's batches.  Between operations the batch also times a fixed
reference task that uses no ``repro`` code, which measures how fast the
host ran.  Every operation is checked against the answer the
paper's Table 2 and the ROADMAP suite fix; a wrong verdict or an
exception counts as one failed operation.
Execution, transition and state counts are recorded but never asserted,
so a sound pruning change is not counted as a failure.

Why each workload exists is documented in ``perfbench/README.md``.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import ChessChecker, SearchLimits, TraceCorpus, TraceRecord, trace
from repro.programs import resolve_builtin
from repro.programs.transaction_manager import transaction_manager
from repro.service import CheckingService
from repro.zing import ZingChecker

#: certify: stateless ICB (the CHESS configuration) to bound k.  dryad
#: stops at bound 0: dryad@1 alone takes about 6 s, which would leave too
#: few batches in a run for each operation's fastest time to be steady.
CERTIFY = (("bluetooth:fixed", 2), ("wsq", 2), ("ape", 1), ("dryad", 0))

#: certify-cached: the same programs one bound deeper, with Algorithm 1's
#: work-item table.
CERTIFY_CACHED = (("bluetooth:fixed", 3), ("wsq", 3), ("ape", 2), ("dryad", 1))

#: find-bug on the CHESS programs: spec -> (bug kind, minimal preemptions),
#: the cells of the paper's Table 2.  ape:double-take and
#: dryad:{double-free, refcount-race, close-sem-race, use-after-free} are
#: left out for run length: each takes 3 to 9 s, the rest together 1.5 s.
CHESS_BUGS: Dict[str, Tuple[str, int]] = {
    "bluetooth": ("assertion", 1),
    "wsq:pop-lost-restore": ("assertion", 1),
    "wsq:pop-race": ("assertion", 2),
    "wsq:steal-stale-tail": ("assertion", 2),
    "ape:init-race": ("assertion", 0),
    "ape:early-return": ("assertion", 0),
    "ape:stats-race": ("assertion", 1),
    "dryad:missing-handler": ("assertion", 0),
}

#: find-bug on the ZING transaction manager: variant -> (kind, preemptions).
ZING_BUGS: Dict[str, Tuple[str, int]] = {
    "stale-commit": ("assertion", 2),
    "stale-delete": ("assertion", 2),
    "flush-committed": ("assertion", 3),
}

#: service cold prefill: (spec, max_bound, stop_on_first_bug, expected).
#: ``expected`` is the certified bound of a clean check, or the
#: (kind, preemptions) of the first bug of a stop-at-first-bug job.
SERVICE_COLD: Tuple[Tuple[str, Optional[int], bool, Any], ...] = (
    ("bluetooth:fixed", 1, False, 1),
    ("toy:dekker", 1, False, 1),
    ("wsq:pop-lost-restore", None, True, ("assertion", 1)),
    ("ape:stats-race", None, True, ("assertion", 1)),
    ("dryad:missing-handler", None, True, ("assertion", 0)),
)

#: Warm resubmits per service batch, 24 per cold job.  Warm latency grows
#: with the journal, and larger batches spread more from run to run; two
#: batches pooled leave 12 samples beyond p95.
SERVICE_WARM = 120

#: Result-file keys that legitimately differ between a job and its
#: warm resubmission.
_JOB_KEYS = ("job", "cache_hit", "corpus_fastpath", "resumed")


#: Least seconds between two timings of the reference task in a batch.
REFERENCE_EVERY = 0.25


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: Any) -> None:
        self.a = a
        self.b = b


def reference_task() -> float:
    """Seconds for a fixed pure-Python task that uses no ``repro`` code.

    Like the checker, it makes small objects, hashes tuples and updates
    a dict; it keeps under 1 MB live and runs with the garbage collector
    off, so the checker's heap cannot slow it.  Timed between a batch's
    operations, its fastest time measures how fast the host ran while
    they did.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[int, int] = {}
        recent: List[_Node] = []
        for i in range(40000):
            node = _Node(i, (i >> 3, "k"))
            key = hash((node.a & 1023, node.b)) & 4095
            table[key] = table.get(key, 0) + 1
            recent.append(node)
            if len(recent) > 64:
                recent.clear()
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


@dataclass
class Batch:
    """What one batch measured."""

    seconds: float = 0.0
    #: Wall time of each operation, in the batch's order.
    op_seconds: List[float] = field(default_factory=list)
    #: Timings of the reference task, one after an operation at most
    #: every ``REFERENCE_EVERY`` seconds.
    reference_s: List[float] = field(default_factory=list)
    reference_at: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Wall time spent inside the checkers' search calls.
    search_s: float = 0.0
    executions: int = 0
    transitions: int = 0
    distinct_states: int = 0
    first_bug_executions: int = 0
    minimize_candidates: int = 0
    #: Service only: cold job latencies (s) and warm latencies (ms).
    cold: List[float] = field(default_factory=list)
    warm_ms: List[float] = field(default_factory=list)
    journal_events: int = 0
    #: (program, schedule) of every witness, for the isolated engine run.
    witnesses: List[Tuple[Any, Tuple[Any, ...]]] = field(default_factory=list)

    def op(self, label: str, check: Callable[[], Optional[str]]) -> None:
        """Run one operation; a returned message or an exception fails it."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            problem = check()
        except Exception as exc:  # noqa: BLE001 - one failed operation, not a crashed run
            problem = f"raised {type(exc).__name__}: {exc}"
        self.op_seconds.append(time.perf_counter() - start)
        if time.perf_counter() - self.reference_at >= REFERENCE_EVERY:
            self.reference_s.append(reference_task())
            self.reference_at = time.perf_counter()
        if problem is not None:
            self.failed += 1
            self.errors.append(f"{label}: {problem}")

    def finish(self, start: float) -> "Batch":
        """Set ``seconds``: the wall time since ``start``, less the
        reference timings taken in between."""
        self.seconds = time.perf_counter() - start - sum(self.reference_s)
        return self

    def count(self, search: Any) -> None:
        self.executions += search.executions
        self.transitions += search.transitions
        self.distinct_states += search.distinct_states

    def timed(self, fn: Callable[[], Any]) -> Any:
        """Call one checker search, adding its wall time to ``search_s``."""
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.search_s += time.perf_counter() - start


class Workload:
    """One workload: builds its programs once, then runs batches."""

    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.rng = random.Random(seed)
        self.scratch = scratch

    def build(self) -> None:
        """Build every program of the batch (part of ``setup_s``)."""
        raise NotImplementedError

    def run_batch(self) -> Batch:
        raise NotImplementedError


class Certify(Workload):
    """Stateless ICB to a fixed bound; the verdict is a bound certificate."""

    name = "certify"
    suite = CERTIFY
    state_caching = False

    def build(self) -> None:
        order = list(self.suite)
        self.rng.shuffle(order)
        self.checks = [(spec, k, resolve_builtin(spec)) for spec, k in order]

    def run_batch(self) -> Batch:
        batch = Batch()
        start = time.perf_counter()
        for spec, k, program in self.checks:
            batch.op(f"{spec}@{k}", lambda: self._certify(batch, program, k))
        return batch.finish(start)

    def _certify(self, batch: Batch, program: Any, k: int) -> Optional[str]:
        checker = ChessChecker(program)
        result = batch.timed(
            lambda: checker.check(max_bound=k, state_caching=self.state_caching)
        )
        batch.count(result.search)
        if result.found_bug:
            return f"unexpected bug {result.bugs[0].kind.value}"
        if result.certified_bound != k:
            return f"certified bound {result.certified_bound}, expected {k}"
        return None


class CertifyCached(Certify):
    """The certify programs one bound deeper, with the work-item table."""

    name = "certify-cached"
    suite = CERTIFY_CACHED
    state_caching = True


def _first_bug_problem(bug: Any, expected: Tuple[str, int]) -> Optional[str]:
    if bug is None:
        return "no bug found"
    if (bug.kind.value, bug.preemptions) != expected:
        return f"found {bug.kind.value}@{bug.preemptions}, expected {expected[0]}@{expected[1]}"
    return None


class FindBug(Workload):
    """Stop-at-first-bug ICB, then save, replay and minimize the witness."""

    name = "find-bug"

    def build(self) -> None:
        chess = list(CHESS_BUGS)
        zing = list(ZING_BUGS)
        self.rng.shuffle(chess)
        self.rng.shuffle(zing)
        self.chess = [(spec, resolve_builtin(spec)) for spec in chess]
        self.zing = [(v, transaction_manager(v).compile()) for v in zing]
        self.corpus_dir = self.scratch / "traces"

    def run_batch(self) -> Batch:
        batch = Batch()
        shutil.rmtree(self.corpus_dir, ignore_errors=True)
        corpus = TraceCorpus(self.corpus_dir)
        start = time.perf_counter()
        for spec, program in self.chess:
            batch.op(spec, lambda: self._chess(batch, corpus, spec, program))
        for variant, model in self.zing:
            batch.op(f"txnmgr:{variant}", lambda: self._zing(batch, variant, model))
        return batch.finish(start)

    def _chess(
        self, batch: Batch, corpus: TraceCorpus, spec: str, program: Any
    ) -> Optional[str]:
        checker = ChessChecker(program)
        result = batch.timed(
            lambda: checker.check(limits=SearchLimits(stop_on_first_bug=True))
        )
        batch.count(result.search)
        batch.first_bug_executions += result.executions
        bug = result.search.first_bug
        problem = _first_bug_problem(bug, CHESS_BUGS[spec])
        if problem is not None:
            return problem
        batch.witnesses.append((program, bug.schedule))
        path = corpus.save(TraceRecord.from_bug(program, checker.config, bug, spec=spec))
        record = TraceRecord.load(path)
        # Called through the package so that the tracer's wrappers apply.
        report = trace.replay_trace(record, program)
        if report.outcome is not trace.ReplayOutcome.REPRODUCED:
            return f"witness replay classified {report.outcome.value}"
        minimized = trace.minimize_trace(record, program)
        batch.minimize_candidates += minimized.candidates_tried
        if minimized.preemptions != CHESS_BUGS[spec][1]:
            return f"minimized witness has {minimized.preemptions} preemptions"
        return None

    def _zing(self, batch: Batch, variant: str, model: Any) -> Optional[str]:
        result = batch.timed(
            lambda: ZingChecker(model).check(limits=SearchLimits(stop_on_first_bug=True))
        )
        batch.count(result)
        batch.first_bug_executions += result.executions
        return _first_bug_problem(result.first_bug, ZING_BUGS[variant])


class _TimedService(CheckingService):
    """Records when each job's result file has been written."""

    written_at = 0.0

    def write_result(self, job: Any, result: Any) -> Path:
        path = super().write_result(job, result)
        self.written_at = time.perf_counter()
        return path


def _cold_problem(payload: Dict[str, Any], first: bool, expected: Any) -> Optional[str]:
    if payload["cache_hit"]:
        return "cold job was served from the cache"
    if not first:
        if payload["found_bug"]:
            return "unexpected bug"
        if payload["certified_bound"] != expected:
            return f"certified bound {payload['certified_bound']}, expected {expected}"
        return None
    if not payload["bugs"]:
        return "no bug found"
    bug = payload["bugs"][0]
    if (bug["kind"], bug["preemptions"]) != expected:
        return f"found {bug['kind']}@{bug['preemptions']}"
    return None


def _essence(payload: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in payload.items() if k not in _JOB_KEYS}


def _fsync_in_memory(fd: int) -> None:
    """``os.fsync`` as a RAM-backed file system performs it: no disk wait."""


class Service(Workload):
    """One closed-loop client against an in-process checking service.

    Each request is a submit plus ``serve(once=True)``; its latency runs
    from the submit until the job's result file is written.  A batch
    starts from a fresh service root: the cold prefill, then a seeded
    stream of warm resubmits served from the result cache.
    """

    name = "service"

    def build(self) -> None:
        self.cold = list(SERVICE_COLD)
        self.rng.shuffle(self.cold)
        # Every cold job is resubmitted equally often; the seed draws only
        # the order, so every seed asks the service for the same work.
        per_job = SERVICE_WARM // len(self.cold)
        self.stream = [i for i in range(len(self.cold)) for _ in range(per_job)]
        self.rng.shuffle(self.stream)
        for spec, *_ in self.cold:
            resolve_builtin(spec)
        self.batches = 0
        self.open_root(self.scratch / "service-setup")

    @staticmethod
    def open_root(root: Path) -> _TimedService:
        shutil.rmtree(root, ignore_errors=True)
        return _TimedService(root)

    @staticmethod
    def _request(
        service: _TimedService, spec: str, bound: Optional[int], first: bool
    ) -> Tuple[Dict[str, Any], float]:
        start = time.perf_counter()
        job = service.queue.submit(spec, max_bound=bound, stop_on_first_bug=first)
        service.serve(once=True)
        latency = service.written_at - start
        return service.load_result(job.id), latency

    def run_batch(self) -> Batch:
        # Every journal append is fsynced.  The benchmark may write only
        # inside its checkout, so it cannot put the service root on a
        # RAM-backed file system, where fsync returns at once; it makes
        # fsync return at once in this process instead, so the batch
        # measures the service's code path rather than the disk.
        fsync = os.fsync
        os.fsync = _fsync_in_memory
        try:
            return self._run_batch()
        finally:
            os.fsync = fsync

    def _run_batch(self) -> Batch:
        batch = Batch()
        self.batches += 1
        root = self.scratch / f"service-{self.batches}"
        service = self.open_root(root)
        cold: List[Optional[Dict[str, Any]]] = [None] * len(self.cold)

        def cold_job(i: int) -> Optional[str]:
            spec, bound, first, expected = self.cold[i]
            payload, latency = self._request(service, spec, bound, first)
            batch.cold.append(latency)
            batch.search_s += latency
            batch.executions += payload["executions"]
            batch.transitions += payload["transitions"]
            batch.distinct_states += payload["distinct_states"]
            cold[i] = payload
            return _cold_problem(payload, first, expected)

        def warm_job(i: int) -> Optional[str]:
            spec, bound, first, _ = self.cold[i]
            payload, latency = self._request(service, spec, bound, first)
            batch.warm_ms.append(latency * 1000.0)
            reference = cold[i]
            if reference is None:
                return "its cold job failed"
            if not payload["cache_hit"]:
                return "warm resubmit missed the result cache"
            if _essence(payload) != _essence(reference):
                return "warm result differs from its cold result"
            return None

        start = time.perf_counter()
        for i in range(len(self.cold)):
            batch.op(f"cold {self.cold[i][0]}", lambda: cold_job(i))
        for i in self.stream:
            batch.op(f"warm {self.cold[i][0]}", lambda: warm_job(i))
        batch.finish(start)
        with service.queue.journal.open(encoding="utf-8") as journal:
            batch.journal_events = sum(1 for _ in journal)
        shutil.rmtree(root, ignore_errors=True)
        return batch


WORKLOADS = {w.name: w for w in (Certify, CertifyCached, FindBug, Service)}
