"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout of the repository; the program under
test is imported from ``src/``.  With ``--trace 0`` the run repeats
untraced batches for about ``--seconds`` seconds and reports the
end-to-end metrics.  With ``--trace 1`` it runs two untraced batches,
then one batch with every layer traced, and reports the per-layer metrics
(see ``perfbench/README.md``).  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every
operation's verdict is checked; a wrong verdict or an exception counts
as a failed operation and makes ``correct`` false.

Working files go to ``.bench_run/`` in the checkout and are removed at
the end of the run, except the latest result and span file per workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".bench_run"

#: Fewest fresh interpreters timed per run for ``setup_s``; one runs
#: after each batch, and the rest, if any, after the last batch.
SETUP_CHILDREN = 10

#: The reference task's fastest time at the speed ``verdict_s`` is given
#: in, close to its time on the machine where the bounds were set (see
#: README.md).
REFERENCE_S = 0.02

#: Untraced batches before the traced one in a ``--trace 1`` run.
TRACE_UNTRACED = 2

#: Schedules replayed for ``core.isolated_steps_per_s``, and how long.
ISOLATED_SCHEDULES = 256
ISOLATED_SECONDS = 1.0


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares; the run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _p95(values: List[float]) -> float:
    return statistics.quantiles(values, n=100)[94]


# -- the environment stamp ------------------------------------------------------


def _git_sha() -> str:
    """HEAD's commit from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _source_digest() -> str:
    """SHA-256 over ``src/`` (paths and contents), for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset (random)"),
    }


# -- measuring ----------------------------------------------------------------------


def setup_sample(workload: str, scratch: Path) -> float:
    """One ``setup_s`` sample, from a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(scratch / "setup")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.split()[-1])


def isolated_steps_per_s(schedules: List[Tuple[Any, Tuple[Any, ...]]]) -> float:
    """Engine steps/s replaying recorded schedules with no search around them."""
    from repro import Execution

    if not schedules:
        return 0.0
    steps = 0
    start = time.perf_counter()
    while True:
        for program, schedule in schedules:
            Execution.replay(program, schedule)
            steps += len(schedule)
        elapsed = time.perf_counter() - start
        if elapsed >= ISOLATED_SECONDS:
            return steps / elapsed


def _every(values: List[Any], limit: int) -> List[Any]:
    """At most ``limit`` evenly spaced elements, deterministically."""
    return values[:: max(1, -(-len(values) // limit))][:limit]


def run_untraced(workload: Any, seconds: float, scratch: Path) -> Tuple[List[Any], List[float]]:
    """Repeat batches, each followed by one ``setup_s`` sample, while the
    average round still fits in ``seconds``.

    Interleaving spreads the set-up samples over the run, so a slow
    stretch of the host cannot set all of them.
    """
    batches: List[Any] = []
    setup: List[float] = []
    start = time.perf_counter()
    while True:
        batches.append(workload.run_batch())
        setup.append(setup_sample(workload.name, scratch))
        elapsed = time.perf_counter() - start
        if elapsed * (len(batches) + 1) / len(batches) > seconds:
            break
    while len(setup) < SETUP_CHILDREN:
        setup.append(setup_sample(workload.name, scratch))
    return batches, setup


def fastest_batch(batches: List[Any]) -> float:
    """The batch's wall time without host contention: each operation's
    fastest time over the batches, summed.  Contention only ever slows
    an operation, so its fastest run is the steadiest estimate of it."""
    return sum(min(times) for times in zip(*(b.op_seconds for b in batches)))


def fastest_reference(batches: List[Any]) -> float:
    return min(t for b in batches for t in b.reference_s)


def end_to_end(batches: List[Any], setup: List[float]) -> Dict[str, Any]:
    """The gated metrics.  ``verdict_s`` is scaled to the reference
    speed: the host's speed drifts by tens of percent over minutes, and
    the reference task, timed between the same operations, drifts with
    it."""
    scale = REFERENCE_S / fastest_reference(batches)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "verdict_s": (fastest_batch(batches) * scale, len(batches)),
        "setup_s": (min(setup), len(setup)),
        "peak_rss_mb": (rss_mb, 1),
    }


def service_latency(batches: List[Any]) -> Dict[str, Tuple[float, int]]:
    warm = [ms for b in batches for ms in b.warm_ms]
    cold = [sum(b.cold) for b in batches if b.cold]
    if not warm:
        return {}
    return {
        "warm_p50_ms": (statistics.median(warm), len(warm)),
        "warm_p95_ms": (_p95(warm), len(warm)),
        "cold_s": (statistics.median(cold), len(batches[0].cold)),
    }


def per_layer(untraced: List[Any], traced: Any, tracer: Any) -> Dict[str, float]:
    """The per-layer metrics of one traced batch (see README.md); the
    untraced batches give the untraced rates and latencies."""
    spans = tracer.totals()
    total, self_time, count = spans.total, spans.self_time, spans.count
    transitions = traced.transitions
    engine_s = total["Execution.execute"]
    data_checks = count["HBTracker.data_access"]
    lookups = count["ResultCache.lookup"]
    schedules = traced.witnesses or _every(tracer.schedules, ISOLATED_SCHEDULES)
    latency = service_latency(untraced)
    untraced_s = min(b.seconds for b in untraced)
    return {
        "core.steps": count["Execution.execute"],
        "core.execute_self_s": self_time["Execution.execute"],
        "core.fingerprint_s": total["Execution.fingerprint"],
        "core.fingerprints_per_transition": _ratio(count["Execution.fingerprint"], transitions),
        "core.enabled_calls_per_transition": _ratio(
            count["Execution.enabled_threads"], transitions
        ),
        "core.replays": sum(space.replays for space in tracer.spaces),
        "core.replay_steps_per_transition": _ratio(
            sum(space.replay_steps for space in tracer.spaces), transitions
        ),
        "core.replay_share": _ratio(spans.replay_s, engine_s),
        "core.isolated_steps_per_s": isolated_steps_per_s(schedules),
        "races.data_access_s": total["HBTracker.data_access"],
        "races.sync_access_s": total["HBTracker.sync_access"],
        "races.checks": data_checks,
        "races.us_per_access": _ratio(total["HBTracker.data_access"] * 1e6, data_checks),
        "search.executions": traced.executions,
        "search.transitions": transitions,
        "search.distinct_states": traced.distinct_states,
        "search.exec_per_s": _ratio(
            sum(b.executions for b in untraced), sum(b.search_s for b in untraced)
        ),
        "search.self_s": spans.search_self_s,
        "search.cache_lookups": count["WorkItemCache.seen"],
        "search.cache_hit_ratio": _ratio(
            spans.hits["WorkItemCache.seen"], count["WorkItemCache.seen"]
        ),
        "search.first_bug_executions": traced.first_bug_executions,
        "zing.execute_s": total["ZingStateSpace.execute"],
        "zing.fingerprint_s": total["ZingStateSpace.fingerprint"],
        "zing.transitions": count["ZingStateSpace.execute"],
        "trace.save_s": total["TraceRecord.save"],
        "trace.replay_s": spans.trace_replay_s,
        "trace.minimize_s": total["minimize.minimize_trace"],
        "trace.minimize_candidates": traced.minimize_candidates,
        "service.submit_s": total["JobQueue.submit"],
        "service.claim_s": total["JobQueue.claim"],
        "service.complete_s": total["JobQueue.complete"],
        "service.journal_events": traced.journal_events,
        "service.cache_lookup_s": total["ResultCache.lookup"],
        "service.cache_store_s": total["ResultCache.store"],
        "service.checkpoint_save_s": total["Checkpointer.save_state"],
        "service.result_write_s": total["CheckingService.write_result"],
        "service.cache_hit_ratio": _ratio(spans.hits["ResultCache.lookup"], lookups),
        "tracing_overhead": _ratio(traced.seconds, untraced_s),
        "host.reference_s": fastest_reference(untraced),
        "warm_p50_ms": latency.get("warm_p50_ms", (0.0, 0))[0],
        "warm_p95_ms": latency.get("warm_p95_ms", (0.0, 0))[0],
        "cold_s": latency.get("cold_s", (0.0, 0))[0],
        "failed_frac": _ratio(
            sum(b.failed for b in [*untraced, traced]),
            sum(b.attempted for b in [*untraced, traced]),
        ),
    }


# -- reporting --------------------------------------------------------------------


def report_end_to_end(
    measured: Dict[str, Tuple[float, int]], batches: List[Any], workload: str
) -> List[str]:
    """Human-readable lines naming all seven end-to-end metrics."""
    median_batch = statistics.median(b.seconds for b in batches)
    unscale = fastest_reference(batches) / REFERENCE_S
    lines = [
        f"verdict_s    {measured['verdict_s'][0]:10.4f} s   at reference speed "
        f"({measured['verdict_s'][0] * unscale:.4f} s here): sum over "
        f"{len(batches[0].op_seconds)} operations of each one's fastest of "
        f"{measured['verdict_s'][1]} batch(es); median batch {median_batch:.4f} s",
        f"setup_s      {measured['setup_s'][0]:10.4f} s   fastest of "
        f"{measured['setup_s'][1]} fresh interpreters, one after each batch",
        f"peak_rss_mb  {measured['peak_rss_mb'][0]:10.1f} MB  ru_maxrss of this process",
        f"reference    {fastest_reference(batches):10.6f} s   fastest of "
        f"{sum(len(b.reference_s) for b in batches)} timings of the reference task, "
        f"{REFERENCE_S:g} s at reference speed",
    ]
    return lines + report_latency(batches, workload)


def report_latency(batches: List[Any], workload: str) -> List[str]:
    """Lines for the service latencies and ``failed_frac``, with counts."""
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    latency = service_latency(batches)
    lines = []
    if latency:
        warm = latency["warm_p50_ms"][1]
        lines += [
            f"warm_p50_ms  {latency['warm_p50_ms'][0]:10.3f} ms  of {warm} warm requests",
            f"warm_p95_ms  {latency['warm_p95_ms'][0]:10.3f} ms  of {warm} warm requests, "
            f"{warm - int(0.95 * warm)} beyond it",
            f"cold_s       {latency['cold_s'][0]:10.4f} s   sum of "
            f"{latency['cold_s'][1]} cold jobs, median of {len(batches)} batch(es)",
        ]
    else:
        lines += [
            f"{name:<12} {'n/a':>10}     the {workload} workload makes no service requests"
            for name in ("warm_p50_ms", "warm_p95_ms", "cold_s")
        ]
    lines.append(
        f"failed_frac  {_ratio(failed, attempted):10.4f}     {failed} of {attempted} operations"
    )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    RUN_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        stamp = environment()
        # One CPU for the run, its set-up interpreters and the reference
        # task: the CPUs of a shared host are slowed independently,
        # and the reference must measure the one the checks ran on.
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        stamp["pinned_cpu"] = cpu
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}")
        print("env " + json.dumps(stamp, sort_keys=True))
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        workload.build()
        if args.trace:
            from tracer import Tracer

            untraced = [workload.run_batch() for _ in range(TRACE_UNTRACED)]
            tracer = Tracer()
            tracer.install()
            try:
                traced = workload.run_batch()
            finally:
                tracer.uninstall()
            batches = [*untraced, traced]
            metrics = per_layer(untraced, traced, tracer)
            units = metric_units("per_layer")
            tracer.write(RUN_DIR / f"spans-{args.workload}.bin")
            for name, unit in units.items():
                print(f"{name:<36} {metrics[name]:>16.6g} {unit}")
            for line in report_latency(untraced, args.workload):
                print("untraced " + line)
        else:
            batches, setup = run_untraced(workload, args.seconds, scratch)
            measured = end_to_end(batches, setup)
            for line in report_end_to_end(measured, batches, args.workload):
                print(line)
            metrics = {name: value for name, (value, _) in measured.items()}
            units = metric_units("end_to_end")
        errors = [error for batch in batches for error in batch.errors]
        for error in errors[:20]:
            print(f"FAILED {error}")
        attempted = sum(b.attempted for b in batches)
        failed = sum(b.failed for b in batches)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": units[name]} for name in units
            },
        }
        (RUN_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
            json.dumps({"env": stamp, "seed": args.seed, **result}, indent=2) + "\n"
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
