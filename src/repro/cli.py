"""Command-line interface: ``python -m repro``.

Checks a built-in benchmark program (or any program importable as
``module:factory``) with a chosen strategy::

    python -m repro list
    python -m repro check bluetooth --bound 2
    python -m repro check wsq:pop-race --stop-on-first-bug
    python -m repro check mypkg.mymod:make_program --strategy dfs
    python -m repro check --module examples.invivo.bounded_queue:make_program
    python -m repro explain wsq:pop-race

A misspelled built-in name exits 1 with close-match suggestions;
``--module`` imports a ``module:factory`` entry point explicitly (the
usual way to check :mod:`repro.invivo` programs -- real ``threading``
code; see ``docs/invivo.md``).

The static-analysis subsystem (see ``docs/analysis.md``) is exposed
three ways: ``analyze`` prints a program's access summaries, lock
graph and race candidates; ``lint`` reports static anomalies (exiting
non-zero on findings not recorded in a ``--baseline`` file); and
``check --analysis`` applies the analysis-driven scheduling-point
reduction during the search::

    python -m repro analyze wsq:pop-race
    python -m repro lint --all --baseline ci/lint-baseline.txt
    python -m repro check toy:stats-race --analysis

``check`` exits non-zero when a bug is found, so the CLI slots into CI
pipelines the way the paper envisions systematic testing replacing
stress testing.  Found bugs become durable, shippable artifacts
through the trace subsystem (see ``docs/trace.md``)::

    python -m repro check bluetooth --trace-dir traces/
    python -m repro trace save wsq:pop-race pop-race.trace.json
    python -m repro trace replay pop-race.trace.json
    python -m repro trace minimize pop-race.trace.json
    python -m repro corpus run traces/

``trace replay`` exits 0 only when the stored bug is ``REPRODUCED``;
``corpus run`` exits non-zero iff any stored trace fails to reproduce
-- the regression loop for a directory of known bugs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, Optional

from .chess.checker import ChessChecker
from .core.execution import ExecutionConfig, RaceDetection, SchedulingPolicy
from .core.program import Program
from .errors import ReproError
from .programs import builtin_registry, import_factory, resolve_spec
from .search import (
    DepthFirstSearch,
    EnabledThreadsHeuristic,
    IterativeDeepening,
    RandomWalk,
    SearchLimits,
    Strategy,
)


def _builtin_programs() -> Dict[str, Callable[[], Program]]:
    return builtin_registry()


def _import_factory(spec: str) -> Program:
    """Build a program from a ``module:factory`` spec, with CLI errors."""
    try:
        return import_factory(spec)
    except ReproError as exc:
        raise SystemExit(str(exc))


def _resolve_program(spec: str) -> Program:
    """Resolve a program spec, with CLI errors and a did-you-mean hint."""
    try:
        return resolve_spec(spec)
    except ReproError as exc:
        message = str(exc)
    import difflib

    close = difflib.get_close_matches(spec, sorted(_builtin_programs()), n=3, cutoff=0.5)
    if close:
        message += "\ndid you mean: " + ", ".join(close)
    raise SystemExit(message)


def _make_strategy(args: argparse.Namespace) -> Optional[Strategy]:
    name = args.strategy
    if name == "icb":
        return None  # checker default, honours --bound
    if name == "dfs":
        return DepthFirstSearch(depth_bound=args.depth_bound)
    if name == "idfs":
        return IterativeDeepening()
    if name == "random":
        return RandomWalk(executions=args.executions or 1000, seed=args.seed)
    if name == "most-enabled":
        return EnabledThreadsHeuristic()
    raise SystemExit(f"unknown strategy {name!r}")


def _make_config(args: argparse.Namespace) -> ExecutionConfig:
    return ExecutionConfig(
        policy=SchedulingPolicy(args.policy),
        race_detection=RaceDetection.NONE
        if args.no_race_detection
        else RaceDetection.VECTOR_CLOCK,
    )


def _check_spec(args: argparse.Namespace) -> str:
    """The program spec a check/explain/save invocation targets.

    Exactly one of the PROGRAM positional and ``--module`` must be
    given; the returned spec doubles as the trace spec recorded in
    saved witnesses, so replays can rebuild the program.
    """
    if args.program is not None and args.module is not None:
        raise SystemExit("pass a PROGRAM or --module, not both")
    if args.program is not None:
        return args.program
    if args.module is not None:
        if ":" not in args.module:
            raise SystemExit(
                f"--module expects module:factory, got {args.module!r}"
            )
        return args.module
    raise SystemExit("pass a PROGRAM (see `python -m repro list`) or --module")


def _resolve_check_program(args: argparse.Namespace, spec: str) -> Program:
    if args.module is not None:
        return _import_factory(spec)
    return _resolve_program(spec)


def _add_check_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("program", nargs="?", default=None,
                        help="built-in name or module:factory")
    parser.add_argument("--module", default=None, metavar="MODULE:FACTORY",
                        help="check the Program returned by this factory "
                        "(e.g. examples.invivo.bounded_queue:make_program; "
                        "the usual entry point for repro.invivo programs)")
    parser.add_argument("--bound", "--max-bound", dest="bound", type=int, default=None,
                        help="stop ICB after this preemption bound")
    parser.add_argument("--workers", type=int, default=None,
                        help="shard the ICB frontier across this many worker "
                        "processes (only with --strategy icb)")
    parser.add_argument("--strategy", default="icb",
                        choices=["icb", "dfs", "idfs", "random", "most-enabled"])
    parser.add_argument("--depth-bound", type=int, default=None,
                        help="depth bound for --strategy dfs")
    parser.add_argument("--executions", type=int, default=None,
                        help="execution budget")
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall-clock budget")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for --strategy random")
    parser.add_argument("--stop-on-first-bug", action="store_true")
    parser.add_argument("--policy", default="sync-only",
                        choices=[p.value for p in SchedulingPolicy])
    parser.add_argument("--no-race-detection", action="store_true")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="persist every found bug's witness as a "
                        "*.trace.json file under this directory")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write a repro-metrics JSON snapshot of the run "
                        "(inspect with `repro stats FILE`)")
    parser.add_argument("--events-out", default=None, metavar="FILE",
                        help="write the structured event stream as JSONL "
                        "(inspect with `repro stats FILE`)")
    parser.add_argument("--progress", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="render a live progress line on stderr")
    parser.add_argument("--progress-interval", type=int, default=None, metavar="N",
                        help="with --workers: stream worker progress every N "
                        "transitions (drives heartbeats and global budgets)")
    parser.add_argument("--profile", action="store_true",
                        help="time every schedule/execute/fingerprint/"
                        "race-detect/cache-lookup call and print a phase "
                        "profile (adds overhead)")
    parser.add_argument("--analysis", action="store_true",
                        help="run the static analysis pass first and apply "
                        "the scheduling-point reduction it proves sound "
                        "(see docs/analysis.md)")
    parser.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="durable checkpoint file: resume from it if it "
                        "exists, journal the search into it while running "
                        "(see docs/service.md; only with --strategy icb)")
    parser.add_argument("--checkpoint-stride", type=int, default=None, metavar="N",
                        help="save the checkpoint every N processed work "
                        "items (bound completions always save)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed result cache: identical "
                        "re-checks are served from here without exploring "
                        "(see docs/service.md; only with --strategy icb)")


def _make_obs(args: argparse.Namespace, limits: SearchLimits):
    """Build an Instrumentation from the observability flags, or None
    when no flag asks for one (keeping the run entirely uninstrumented)."""
    wanted = (
        args.metrics_out or args.events_out or args.progress or args.profile
    )
    if not wanted:
        return None
    from .obs import EventBus, Instrumentation, JsonlEventSink, LiveProgressSink

    bus = EventBus()
    if args.events_out:
        bus.subscribe(JsonlEventSink(args.events_out))
    if args.progress:
        bus.subscribe(LiveProgressSink(limits=limits))
    return Instrumentation(bus=bus, profiling=args.profile)


def _finish_obs(args: argparse.Namespace, obs) -> None:
    """Freeze and persist instrumentation output after a run."""
    if obs is None:
        return
    snapshot = obs.snapshot()
    obs.close()
    if args.metrics_out:
        snapshot.save(args.metrics_out)
    if args.profile:
        from .obs import Profiler

        print(Profiler.render(snapshot.profile, snapshot.elapsed), file=sys.stderr)


def _run_checker(entry: Callable[..., Any], **kwargs: Any) -> Any:
    """Call a :class:`ChessChecker` entry point; an input it refuses (an
    unsupported argument combination, an unusable checkpoint, ...) ends
    the command with its one-line message instead of a traceback."""
    try:
        return entry(**kwargs)
    except (ReproError, ValueError) as exc:
        raise SystemExit(str(exc))


def _parallel_settings(args: argparse.Namespace):
    if args.progress_interval is None:
        return None
    if args.progress_interval < 1:
        raise SystemExit("--progress-interval must be at least 1")
    if args.workers is None or args.workers < 2:
        raise SystemExit("--progress-interval requires --workers 2 or more")
    from .parallel.coordinator import ParallelSettings

    return ParallelSettings(progress_interval=args.progress_interval)


def _analysis_specs(args: argparse.Namespace) -> list:
    """The program specs an analyze/lint invocation covers."""
    module = getattr(args, "module", None)
    if module is not None:
        if args.program is not None or getattr(args, "all", False):
            raise SystemExit(
                "pass a PROGRAM, --all or --module, not a combination"
            )
        if ":" not in module:
            raise SystemExit(
                f"--module expects module:factory, got {module!r}"
            )
        return [module]
    if getattr(args, "all", False):
        if args.program is not None:
            raise SystemExit("pass a PROGRAM or --all, not both")
        return sorted(_builtin_programs())
    if args.program is None:
        raise SystemExit("pass a PROGRAM, --all or --module")
    return [args.program]


def _resolve_analysis_program(args: argparse.Namespace, spec: str) -> Program:
    """Resolve one analyze/lint spec (built-in, spec'd, or --module)."""
    if getattr(args, "module", None) is not None:
        return _import_factory(spec)
    return _resolve_program(spec)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze

    first = True
    for spec in _analysis_specs(args):
        if not first:
            print()
        first = False
        print(analyze(_resolve_analysis_program(args, spec)).render())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import analyze, format_baseline, load_baseline

    findings: list = []
    for spec in _analysis_specs(args):
        findings.extend(analyze(_resolve_analysis_program(args, spec)).findings)
    if args.update_baseline:
        with open(args.update_baseline, "w", encoding="utf-8") as fh:
            fh.write(format_baseline(findings))
        print(f"wrote {len(findings)} fingerprint(s) to {args.update_baseline}")
        return 0
    baseline = set()
    if args.baseline:
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                baseline = load_baseline(fh.read())
        except OSError as exc:
            raise SystemExit(str(exc))
    fresh: list = []
    for finding in findings:
        known = finding.fingerprint in baseline
        if not known:
            fresh.append(finding)
        suffix = "  (baselined)" if known else ""
        print(f"{finding.program}: {finding.describe()}{suffix}")
    if fresh:
        print(
            f"{len(fresh)} finding(s) not in the baseline", file=sys.stderr
        )
        return 1
    if findings:
        print(f"{len(findings)} finding(s), all baselined")
    else:
        print("no findings")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .obs import (
        MetricsSnapshot,
        ObsFormatError,
        render_event_summary,
        validate_event_log,
    )

    try:
        with open(args.file, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SystemExit(str(exc))
    except json.JSONDecodeError:
        data = None  # multi-line JSONL parses line by line below
    if isinstance(data, dict) and data.get("format") == "repro-metrics":
        try:
            snapshot = MetricsSnapshot.from_dict(data)
        except ObsFormatError as exc:
            raise SystemExit(f"bad metrics file: {exc}")
        print(snapshot.summary())
        return 0
    try:
        events = validate_event_log(args.file)
    except ObsFormatError as exc:
        raise SystemExit(
            f"{args.file} is neither a repro-metrics JSON nor a "
            f"repro-events JSONL file: {exc}"
        )
    print(render_event_summary(events))
    return 0


def _resolve_trace_target(args: argparse.Namespace, trace) -> Program:
    """The program a trace subcommand replays against: an explicit
    ``--program`` override, or the trace's own recorded resolution."""
    from .trace.corpus import resolve_trace_program

    if getattr(args, "program", None):
        return _resolve_program(args.program)
    try:
        return resolve_trace_program(trace)
    except Exception as exc:
        raise SystemExit(f"cannot resolve the trace's program: {exc}; pass --program")


def _cmd_trace_save(args: argparse.Namespace) -> int:
    from .trace.format import TraceRecord

    if args.out is None and args.module is not None and args.program is not None:
        # With --module the single positional is OUT, but argparse
        # bound it to the optional PROGRAM slot.
        args.program, args.out = None, args.program
    if args.out is None:
        raise SystemExit("trace save needs an OUT path for the witness")
    spec = _check_spec(args)
    program = _resolve_check_program(args, spec)
    checker = ChessChecker(program, _make_config(args))
    limits = SearchLimits(
        max_executions=args.executions, max_seconds=args.seconds,
        stop_on_first_bug=True,
    )
    obs = _make_obs(args, limits)
    bug = _run_checker(
        checker.find_bug,
        max_bound=args.bound, limits=limits, workers=args.workers, obs=obs,
        analysis=args.analysis,
    )
    _finish_obs(args, obs)
    if bug is None:
        print("no bug found; nothing to save")
        return 1
    trace = TraceRecord.from_bug(program, checker.config, bug, spec=spec)
    path = trace.save(args.out)
    print(f"saved {path}")
    print(trace.summary())
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from .trace.format import TraceFormatError, TraceRecord
    from .trace.replay import replay_trace

    try:
        trace = TraceRecord.load(args.trace)
    except TraceFormatError as exc:
        raise SystemExit(f"bad trace file: {exc}")
    program = _resolve_trace_target(args, trace)
    report = replay_trace(trace, program)
    print(report.explain())
    return 0 if report.reproduced else 1


def _cmd_trace_minimize(args: argparse.Namespace) -> int:
    from .trace.format import TraceFormatError, TraceRecord
    from .trace.minimize import MinimizationError, minimize_trace

    try:
        trace = TraceRecord.load(args.trace)
    except TraceFormatError as exc:
        raise SystemExit(f"bad trace file: {exc}")
    program = _resolve_trace_target(args, trace)
    try:
        result = minimize_trace(trace, program)
    except MinimizationError as exc:
        raise SystemExit(str(exc))
    out = args.out or args.trace
    result.trace.save(out)
    print(result.summary())
    print(f"wrote {out}")
    return 0


def _cmd_corpus_run(args: argparse.Namespace) -> int:
    from .trace.corpus import TraceCorpus

    corpus = TraceCorpus(args.dir)
    if not corpus.paths():
        print(f"no *.trace.json files under {args.dir}")
        return 1
    report = corpus.run()
    print(report.summary())
    return 0 if report.ok else 1


def _serve_obs(args: argparse.Namespace):
    """Instrumentation for a daemon run, if --metrics-out asked for it."""
    if not getattr(args, "metrics_out", None):
        return None
    from .obs import Instrumentation

    return Instrumentation()


def _report_serve(queue, handled: int) -> int:
    print(f"handled {handled} job(s)")
    failed = [job for job in queue.jobs() if job.status == "failed"]
    for job in failed:
        print(job.describe(), file=sys.stderr)
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    obs = _serve_obs(args)
    fleet_mode = args.fleet or args.http is not None or args.peer
    if fleet_mode:
        from .net import FleetDaemon

        daemon = FleetDaemon(
            args.root,
            daemon_id=args.daemon_id,
            lease_ttl=args.lease_ttl,
            http_port=args.http,
            peers=args.peer or (),
            max_attempts=args.max_attempts,
            obs=obs,
        )
        daemon.start()
        if daemon.url:
            print(f"listening on {daemon.url}", flush=True)
        try:
            handled = daemon.serve(
                once=args.once,
                poll_interval=args.poll_interval,
                max_jobs=args.max_jobs,
            )
        finally:
            daemon.close()
            if obs is not None:
                obs.snapshot().save(args.metrics_out)
        return _report_serve(daemon.service.queue, handled)

    from .service import CheckingService

    service = CheckingService(args.root, max_attempts=args.max_attempts, obs=obs)
    handled = service.serve(
        once=args.once,
        poll_interval=args.poll_interval,
        max_jobs=args.max_jobs,
    )
    if obs is not None:
        obs.snapshot().save(args.metrics_out)
    return _report_serve(service.queue, handled)


def _service_client(args: argparse.Namespace):
    from .net import ServiceClient

    return ServiceClient(args.server, timeout=args.timeout, retries=args.retries)


def _cmd_submit(args: argparse.Namespace) -> int:
    from .search.plan import FLAT_FIELDS, CheckPlan, PlanError

    # The submit flags' dests are the plan's flat JSON field names.
    flags = {name: value for name, value in vars(args).items() if name in FLAT_FIELDS}
    try:
        fields = CheckPlan.from_json(flags).to_json()
    except PlanError as exc:
        raise SystemExit(str(exc))
    if args.server:
        # With --server the ROOT positional is dropped, so the single
        # positional (bound to `root` by argparse) is the program.
        if args.program is not None:
            raise SystemExit("pass PROGRAM only (no ROOT) with --server")
        if args.root is None:
            raise SystemExit("submit --server needs a PROGRAM")
        from .net import ServiceClientError

        try:
            job = _service_client(args).submit(args.root, args.priority, **fields)
        except ServiceClientError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(job["id"])
        return 0
    if args.root is None or args.program is None:
        raise SystemExit("submit needs ROOT and PROGRAM (or --server URL PROGRAM)")
    from .service import JobQueue

    print(JobQueue(args.root).submit(args.program, args.priority, **fields).id)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    if args.server:
        from .net import ServiceClientError
        from .service import Job

        job_id = args.job if args.job is not None else args.root
        client = _service_client(args)
        try:
            records = [client.job(job_id)] if job_id else client.jobs()
        except ServiceClientError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        jobs = [Job.from_json(record) for record in records]
        source = args.server
    else:
        if args.root is None:
            raise SystemExit("status needs a ROOT (or --server URL)")
        from .service import JobQueue

        queue = JobQueue(args.root)
        if args.job is not None:
            job = queue.get(args.job)
            if job is None:
                print(
                    f"error: unknown job id {args.job!r} under {args.root} "
                    "(run `repro status` without a job id to list them)",
                    file=sys.stderr,
                )
                return 1
            jobs = [job]
        else:
            jobs = queue.jobs()
        source = args.root
    if args.json:
        print(json.dumps([job.to_json() for job in jobs], indent=2))
        return 0
    if not jobs:
        print(f"no jobs under {source}")
        return 0
    for job in jobs:
        print(job.describe())
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    import json

    if args.server:
        from .net import ServiceClientError

        job_id = args.job if args.job is not None else args.root
        if not job_id:
            raise SystemExit("results --server needs a JOB id")
        try:
            payload = _service_client(args).results(job_id)
        except ServiceClientError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        if args.root is None or args.job is None:
            raise SystemExit("results needs ROOT and JOB (or --server URL JOB)")
        from .service import CheckingService

        service = CheckingService(args.root)
        record = service.queue.get(args.job)
        if record is None:
            print(
                f"error: unknown job id {args.job!r} under {args.root} "
                f"(run `repro status {args.root}` to list jobs)",
                file=sys.stderr,
            )
            return 1
        if record.status != "done":
            print(
                f"error: job {args.job} is {record.status}; no result yet",
                file=sys.stderr,
            )
            return 1
        try:
            payload = service.load_result(args.job)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _add_server_arguments(parser: argparse.ArgumentParser) -> None:
    """The remote-service flags shared by submit/status/results."""
    parser.add_argument("--server", default=None, metavar="URL",
                        help="talk to a daemon's HTTP API (e.g. "
                        "http://host:8080) instead of a local service "
                        "directory; the ROOT positional is dropped")
    parser.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS",
                        help="per-request timeout for --server")
    parser.add_argument("--retries", type=int, default=3, metavar="N",
                        help="bounded retries (jittered backoff) for --server")


def _result_cache(args: argparse.Namespace):
    """Build the --cache-dir result cache (with the --trace-dir corpus
    as its fast path), or None when caching was not requested."""
    if args.cache_dir is None:
        return None
    from .service import ResultCache
    from .trace.corpus import TraceCorpus

    corpus = TraceCorpus(args.trace_dir) if args.trace_dir else None
    return ResultCache(args.cache_dir, corpus=corpus)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Systematic concurrency testing with iterative "
        "context bounding (PLDI 2007 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="list built-in benchmark programs"
    )
    list_parser.add_argument("--json", action="store_true",
                             help="emit a machine-readable registry (spec, "
                             "display name, thread count, expected bug class)")

    check_parser = commands.add_parser("check", help="model-check a program")
    _add_check_arguments(check_parser)

    explain_parser = commands.add_parser(
        "explain", help="find the minimal bug and print its annotated trace"
    )
    _add_check_arguments(explain_parser)

    trace_parser = commands.add_parser(
        "trace", help="save, replay or minimize witness traces"
    )
    trace_commands = trace_parser.add_subparsers(dest="trace_command", required=True)

    save_parser = trace_commands.add_parser(
        "save", help="find the minimal bug and save its witness trace"
    )
    _add_check_arguments(save_parser)
    # nargs="?" (reconciled in _cmd_trace_save) because argparse cannot
    # match an optional PROGRAM followed by a required OUT when option
    # flags separate them.
    save_parser.add_argument("out", nargs="?", default=None,
                             help="output file (or directory) for the trace")

    replay_parser = trace_commands.add_parser(
        "replay", help="replay a saved trace and classify the outcome"
    )
    replay_parser.add_argument("trace", help="a *.trace.json file")
    replay_parser.add_argument("--program", default=None,
                               help="override the program to replay against "
                               "(built-in name or module:factory)")

    minimize_parser = trace_commands.add_parser(
        "minimize", help="shrink a saved trace, re-validating by replay"
    )
    minimize_parser.add_argument("trace", help="a *.trace.json file")
    minimize_parser.add_argument("--out", default=None,
                                 help="write the minimized trace here instead "
                                 "of overwriting the input")
    minimize_parser.add_argument("--program", default=None,
                                 help="override the program to replay against")

    corpus_parser = commands.add_parser(
        "corpus", help="operate on a directory of witness traces"
    )
    corpus_commands = corpus_parser.add_subparsers(dest="corpus_command", required=True)
    corpus_run_parser = corpus_commands.add_parser(
        "run", help="replay every stored trace; fail unless all reproduce"
    )
    corpus_run_parser.add_argument("dir", help="directory of *.trace.json files")

    serve_parser = commands.add_parser(
        "serve",
        help="run the durable checking service over a service directory "
        "(see docs/service.md)",
    )
    serve_parser.add_argument("root", help="service directory (created if missing)")
    serve_parser.add_argument("--once", action="store_true",
                              help="drain the queue and exit instead of "
                              "waiting for new submissions")
    serve_parser.add_argument("--poll-interval", type=float, default=0.2,
                              metavar="SECONDS",
                              help="idle sleep between queue polls")
    serve_parser.add_argument("--max-jobs", type=int, default=None, metavar="N",
                              help="exit after handling N jobs")
    serve_parser.add_argument("--max-attempts", type=int, default=3, metavar="N",
                              help="give up on a job after N failed attempts")
    serve_parser.add_argument("--http", type=int, default=None, metavar="PORT",
                              help="serve the HTTP API on this port (0 picks "
                              "a free one; prints the bound URL); implies "
                              "fleet mode")
    serve_parser.add_argument("--fleet", action="store_true",
                              help="claim jobs under lease fencing so several "
                              "daemons can share this service root "
                              "(see docs/service.md)")
    serve_parser.add_argument("--daemon-id", default=None, metavar="NAME",
                              help="this daemon's identity in lease records "
                              "(default: host-pid)")
    serve_parser.add_argument("--lease-ttl", type=float, default=5.0,
                              metavar="SECONDS",
                              help="lease time-to-live; a daemon silent this "
                              "long forfeits its running jobs to the fleet")
    serve_parser.add_argument("--peer", action="append", default=None,
                              metavar="URL",
                              help="peer daemon base URL for cache/trace sync "
                              "(repeatable); implies fleet mode")
    serve_parser.add_argument("--metrics-out", default=None, metavar="FILE",
                              help="write a repro-metrics JSON snapshot on "
                              "exit (inspect with `repro stats FILE`)")

    submit_parser = commands.add_parser(
        "submit", help="enqueue a checking job for `repro serve`"
    )
    submit_parser.add_argument("root", nargs="?", default=None,
                               help="service directory (omit with --server)")
    submit_parser.add_argument("program", nargs="?", default=None,
                               help="built-in name or module:factory")
    submit_parser.add_argument("--bound", "--max-bound", dest="max_bound", type=int,
                               default=None,
                               help="stop ICB after this preemption bound")
    submit_parser.add_argument("--workers", type=int, default=None,
                               help="run the job with this many worker processes")
    submit_parser.add_argument("--priority", type=int, default=0,
                               help="higher runs first")
    submit_parser.add_argument("--stop-on-first-bug", action="store_true")
    submit_parser.add_argument("--executions", dest="max_executions", type=int,
                               default=None, help="execution budget")
    submit_parser.add_argument("--transitions", dest="max_transitions", type=int,
                               default=None,
                               help="transition budget")
    submit_parser.add_argument("--state-caching", action="store_true",
                               help="enable Algorithm 1's work-item table")
    _add_server_arguments(submit_parser)

    status_parser = commands.add_parser(
        "status", help="show every job in a service directory"
    )
    status_parser.add_argument("root", nargs="?", default=None,
                               help="service directory (omit with --server)")
    status_parser.add_argument("job", nargs="?", default=None,
                               help="show only this job id (errors if unknown)")
    status_parser.add_argument("--json", action="store_true",
                               help="emit machine-readable job records")
    _add_server_arguments(status_parser)

    results_parser = commands.add_parser(
        "results", help="print a finished job's result report"
    )
    results_parser.add_argument("root", nargs="?", default=None,
                                help="service directory (omit with --server)")
    results_parser.add_argument("job", nargs="?", default=None,
                                help="job id (see `repro status`)")
    _add_server_arguments(results_parser)

    stats_parser = commands.add_parser(
        "stats", help="summarize a --metrics-out JSON or --events-out JSONL file"
    )
    stats_parser.add_argument("file", help="a repro-metrics or repro-events file")

    analyze_parser = commands.add_parser(
        "analyze",
        help="print a program's static access summaries, lock graph and "
        "race candidates",
    )
    analyze_parser.add_argument("program", nargs="?", default=None,
                                help="built-in name or module:factory")
    analyze_parser.add_argument("--all", action="store_true",
                                help="analyze every built-in program")
    analyze_parser.add_argument("--module", default=None,
                                metavar="MODULE:FACTORY",
                                help="analyze the Program returned by this "
                                "factory (e.g. examples.invivo."
                                "bounded_queue:make_program)")

    lint_parser = commands.add_parser(
        "lint",
        help="report static synchronization anomalies; non-zero exit on "
        "findings missing from the baseline",
    )
    lint_parser.add_argument("program", nargs="?", default=None,
                             help="built-in name or module:factory")
    lint_parser.add_argument("--all", action="store_true",
                             help="lint every built-in program")
    lint_parser.add_argument("--module", default=None,
                             metavar="MODULE:FACTORY",
                             help="lint the Program returned by this factory "
                             "(e.g. examples.invivo.hidden_state:"
                             "make_program)")
    lint_parser.add_argument("--baseline", default=None, metavar="FILE",
                             help="known-findings file; only findings not "
                             "listed there fail the run")
    lint_parser.add_argument("--update-baseline", default=None, metavar="FILE",
                             help="write the current findings as the new "
                             "baseline and exit 0")

    args, extras = parser.parse_known_args(argv)
    if extras:
        # `trace save PROGRAM --flag X OUT`: both optional positionals
        # were consumed at the first positional chunk, leaving OUT
        # unrecognized -- argparse cannot fill a later chunk once every
        # optional positional is spent.  Reclaim it.
        if (
            args.command == "trace"
            and getattr(args, "trace_command", None) == "save"
            and getattr(args, "out", None) is None
            and len(extras) == 1
            and not extras[0].startswith("-")
        ):
            args.out = extras[0]
        else:
            parser.error("unrecognized arguments: " + " ".join(extras))

    if args.command == "list":
        if args.json:
            import json

            from .programs import builtin_summaries

            summaries = builtin_summaries()
            print(json.dumps(
                [summaries[spec] for spec in sorted(summaries)], indent=2
            ))
            return 0
        for name in sorted(_builtin_programs()):
            print(name)
        return 0
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "results":
        return _cmd_results(args)
    if args.command == "trace":
        if args.trace_command == "save":
            return _cmd_trace_save(args)
        if args.trace_command == "replay":
            return _cmd_trace_replay(args)
        return _cmd_trace_minimize(args)
    if args.command == "corpus":
        return _cmd_corpus_run(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "lint":
        return _cmd_lint(args)

    spec = _check_spec(args)
    program = _resolve_check_program(args, spec)
    checker = ChessChecker(program, _make_config(args))
    limits = SearchLimits(
        max_executions=args.executions,
        max_seconds=args.seconds,
        stop_on_first_bug=args.stop_on_first_bug or args.command == "explain",
    )

    parallel_settings = _parallel_settings(args)
    cache = _result_cache(args)
    obs = _make_obs(args, limits)

    if args.command == "explain":
        from .trace.format import TraceRecord
        from .trace.replay import replay_trace

        bug = _run_checker(
            checker.find_bug,
            max_bound=args.bound, limits=limits, workers=args.workers,
            parallel_settings=parallel_settings,
            trace_dir=args.trace_dir, trace_spec=spec, obs=obs,
            analysis=args.analysis,
            checkpoint=args.checkpoint,
            checkpoint_stride=args.checkpoint_stride,
            cache=cache,
        )
        _finish_obs(args, obs)
        if bug is None:
            print("no bug found")
            return 0
        # Replay through the trace subsystem from the (possibly merged,
        # cross-process) result's witness -- never by re-searching.
        trace = TraceRecord.from_bug(program, checker.config, bug, spec=spec)
        print(replay_trace(trace, program, config=checker.config).explain())
        return 1

    result = _run_checker(
        checker.check,
        strategy=_make_strategy(args),
        max_bound=args.bound,
        limits=limits,
        workers=args.workers,
        parallel_settings=parallel_settings,
        trace_dir=args.trace_dir,
        trace_spec=spec,
        obs=obs,
        analysis=args.analysis,
        checkpoint=args.checkpoint,
        checkpoint_stride=args.checkpoint_stride,
        cache=cache,
    )
    _finish_obs(args, obs)
    print(result.summary())
    return 1 if result.found_bug else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
