"""The stateless model checker: the library's front door.

:class:`ChessChecker` mirrors the paper's CHESS tool: it executes the
program under test directly (no model extraction), is stateless
(revisiting a state means replaying its schedule), introduces context
switches only at synchronization-variable accesses, and checks every
explored execution for data races, which keeps the reduction sound
(Section 3.1, Theorems 2 and 3).

Typical use::

    from repro import ChessChecker, Program

    checker = ChessChecker(Program("demo", setup))
    result = checker.check()                # ICB until exhaustion
    result = checker.check(max_bound=2)     # certify <= 2 preemptions
    bug = checker.find_bug()                # first (minimal) bug or None
    checker.explain(bug)                    # replayed, annotated trace
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..analysis import ProgramAnalysis
    from ..obs.instrument import Instrumentation
    from ..parallel.coordinator import ParallelSettings
    from ..service.cache import ResultCache

from ..core.execution import Execution, ExecutionConfig
from ..core.program import Program
from ..core.transition import ProgramStateSpace
from ..errors import BugReport
from ..search.plan import CheckPlan, SearchLimits
from ..search.strategy import SearchResult, Strategy


@dataclass
class CheckResult:
    """Outcome of one checking run, with the ICB coverage guarantee."""

    program: str
    search: SearchResult
    #: Highest preemption bound completely explored, or ``None`` if
    #: the run stopped before finishing bound 0.  When the search
    #: found no bug, the program is *certified* correct for every
    #: execution with at most this many preemptions.
    certified_bound: Optional[int]

    @property
    def bugs(self) -> List[BugReport]:
        return self.search.bugs

    @property
    def found_bug(self) -> bool:
        return self.search.found_bug

    @property
    def executions(self) -> int:
        return self.search.executions

    @property
    def distinct_states(self) -> int:
        return self.search.distinct_states

    @property
    def transitions(self) -> int:
        return self.search.transitions

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [f"program: {self.program}", self.search.summary()]
        if self.certified_bound is not None and not self.found_bug:
            lines.append(
                "guarantee: no bug is reachable with at most "
                f"{self.certified_bound} preemption(s)"
            )
        for bug in self.bugs:
            lines.append(bug.describe())
        return "\n".join(lines)


class ChessChecker:
    """Stateless systematic testing of a :class:`Program`."""

    def __init__(
        self, program: Program, config: Optional[ExecutionConfig] = None
    ) -> None:
        self.program = program
        self.config = config or ExecutionConfig()

    # -- state-space construction -----------------------------------------

    def space(
        self,
        obs: Optional["Instrumentation"] = None,
        analysis: Optional["ProgramAnalysis"] = None,
    ) -> ProgramStateSpace:
        """A fresh replay-based state space for this program."""
        return ProgramStateSpace(
            self.program, self.config, obs=obs, analysis=analysis
        )

    def analyze(
        self, obs: Optional["Instrumentation"] = None
    ) -> "ProgramAnalysis":
        """Run the static analysis pass over this checker's program.

        Timed under the ``analysis`` profiling phase and reported as an
        ``analysis_completed`` milestone when instrumented.
        """
        from ..analysis import analyze

        if obs is None:
            return analyze(self.program)
        t0 = obs.hook_analysis.start()
        result = analyze(self.program)
        obs.hook_analysis.stop(t0)
        obs.analysis_completed(result)
        return result

    def _resolve_analysis(
        self,
        analysis: Union[bool, "ProgramAnalysis", None],
        obs: Optional["Instrumentation"],
    ) -> Optional["ProgramAnalysis"]:
        if analysis is None or analysis is False:
            return None
        if analysis is True:
            return self.analyze(obs=obs)
        if analysis.program != self.program.name:
            raise ValueError(
                f"analysis is for program {analysis.program!r}, "
                f"not {self.program.name!r}"
            )
        return analysis

    # -- checking entry points -----------------------------------------------

    def check(
        self,
        plan: Optional[CheckPlan] = None,
        *,
        strategy: Optional[Strategy] = None,
        parallel_settings: Optional["ParallelSettings"] = None,
        trace_dir: Optional[Union[str, pathlib.Path]] = None,
        trace_spec: Optional[str] = None,
        obs: Optional["Instrumentation"] = None,
        analysis: Union[bool, "ProgramAnalysis", None] = None,
        checkpoint: Optional[Union[str, pathlib.Path]] = None,
        checkpoint_stride: Optional[int] = None,
        cache: Optional["ResultCache"] = None,
        **fields: Any,
    ) -> CheckResult:
        """Explore the program; by default with ICB until exhaustion.

        Args:
            plan: what to search (:class:`~repro.search.plan.CheckPlan`):
                the preemption bound, the work-item table, the worker
                count and the budgets.  Its fields may instead be
                passed as keywords (``max_bound``, ``state_caching``,
                ``workers``, ``limits``), but not both.  The plan
                refuses what it cannot run; with ``workers`` above 1
                the frontier is sharded across worker processes (see
                :mod:`repro.parallel`), and the bound-ordering
                guarantee and the certified bound are preserved by the
                coordinator's per-bound barrier.  Workers compose with
                ``analysis``: every worker prunes with the one analysis
                run here.
            strategy: overrides the search strategy (any strategy from
                :mod:`repro.search`); only the plan's budgets apply to
                it, so the plan refuses it together with a bound,
                ``state_caching``, ``workers``, ``checkpoint`` or
                ``cache``.
            parallel_settings: tuning/robustness knobs for ``workers``.
            trace_dir: when set, every deduplicated bug's witness is
                persisted there as a ``*.trace.json`` file (see
                :mod:`repro.trace`); under ``workers`` the coordinator
                additionally persists bugs as they stream in, so a
                cross-process witness survives even a crashed run.
            trace_spec: optional program spec (e.g. ``wsq:pop-race``)
                recorded in saved traces so ``corpus run`` can rebuild
                the program later.
            obs: optional :class:`~repro.obs.Instrumentation`; events,
                metrics and phase timings flow through it (see
                ``docs/observability.md``).  Under ``workers`` the
                coordinator merges per-worker metric snapshots into it.
            analysis: opt-in static-analysis search reduction (see
                ``docs/analysis.md``).  ``True`` runs the analysis
                pass here; a precomputed
                :class:`~repro.analysis.ProgramAnalysis` for this
                program is used as-is.  Proven thread-local accesses
                stop generating ICB deferrals; any TOP summary
                disables the reduction, making the flag always safe.
            checkpoint: path of a durable checkpoint file (see
                :mod:`repro.service` and ``docs/service.md``).  When
                the file exists the search *resumes* from it instead
                of starting over; while running, the search journals
                its frontier there so a killed run can continue.
                Serial and parallel checkpoints are interchangeable.
            checkpoint_stride: serial save cadence in processed work
                items (bound completions always save); defaults to
                :data:`repro.service.checkpoint.DEFAULT_STRIDE`.
            cache: a :class:`~repro.service.cache.ResultCache`.  A
                prior identical check (the plan's
                :meth:`~repro.search.plan.CheckPlan.cache_key`) is
                served from disk without exploring anything
                (``extras["cache_hit"]``); authoritative new results
                are stored on the way out.  Runs with a wall-clock
                budget bypass the cache entirely.
        """
        plan = CheckPlan.take(plan, fields)
        if fields:
            raise TypeError(f"check() got an unexpected keyword {next(iter(fields))!r}")
        strategy = plan.strategy(
            strategy,
            wrapped=checkpoint is not None or cache is not None,
            settings=parallel_settings,
            trace_dir=trace_dir,
            trace_spec=trace_spec,
        )
        limits = plan.limits
        cache_key: Optional[str] = None
        if cache is not None and cache.cacheable(limits):
            if cache.obs is None and obs is not None:
                cache.obs = obs

            cache_key = plan.cache_key(self.program, self.config, bool(analysis))
            served = cache.lookup(cache_key)
            if served is not None:
                return served
            if limits.stop_on_first_bug:
                fastpath = cache.corpus_fastpath(self.program, self.config)
                if fastpath is not None:
                    return fastpath
        if checkpoint is not None:
            # Built only on a cache miss: it fingerprints the program.
            from ..service.checkpoint import DEFAULT_STRIDE, Checkpointer

            strategy.checkpointer = Checkpointer(
                checkpoint,
                plan.fingerprint(self.program, self.config, bool(analysis)),
                stride=DEFAULT_STRIDE if checkpoint_stride is None else checkpoint_stride,
                obs=obs,
            )
        resolved = self._resolve_analysis(analysis, obs)
        result = strategy.run(
            self.space(obs=obs, analysis=resolved), limits=limits, obs=obs
        )
        certified = result.extras.get("completed_bound")
        if certified is None and result.completed:
            # Non-ICB strategies that exhausted the space certify all bounds.
            certified = result.context.max_preemptions
        check_result = CheckResult(
            program=self.program.name, search=result, certified_bound=certified
        )
        if trace_dir is not None:
            self.save_traces(check_result.bugs, trace_dir, spec=trace_spec)
        if cache is not None and cache_key is not None:
            cache.store(cache_key, check_result)
        self._report_invivo(obs)
        return check_result

    def _report_invivo(self, obs: Optional["Instrumentation"]) -> None:
        """Surface an in-vivo program's runner statistics through obs.

        Duck-typed on ``invivo_stats`` so the checker needs no import
        of (or dependency on) :mod:`repro.invivo`; DSL programs skip
        this entirely.
        """
        stats = getattr(self.program, "invivo_stats", None)
        if obs is None or stats is None:
            return
        obs.invivo_run(
            self.program.name,
            stats["threads"],
            stats["handshakes"],
            stats["abandoned"],
        )

    def find_bug(
        self,
        max_bound: Optional[int] = None,
        limits: Optional[SearchLimits] = None,
        workers: Optional[int] = None,
        **options: Any,
    ) -> Optional[BugReport]:
        """Run ICB until the first bug; its witness is preemption-minimal.

        The search is ICB without the work-item table, stopping at its
        first bug: ``options`` are :meth:`check`'s other keywords, not
        ``strategy`` (and not ``state_caching``, which the plan then
        refuses).  Because ICB explores every execution with ``c``
        preemptions before any with ``c + 1``, the returned report's
        ``preemptions`` is the minimum over all witnesses of any bug.
        With ``workers`` the parallel engine finishes the whole bound
        in which the first bug appears before stopping, which keeps the
        same guarantee (and the same deterministic answer) at the cost
        of exploring the remainder of that bound.
        """
        if "strategy" in options:
            raise TypeError("find_bug() got an unexpected keyword 'strategy'")
        plan = CheckPlan(max_bound=max_bound, workers=workers, limits=limits)
        return self.check(plan.first_bug(), **options).search.first_bug

    # -- trace persistence ------------------------------------------------------

    def save_traces(
        self,
        bugs: Sequence[BugReport],
        trace_dir: Union[str, pathlib.Path],
        spec: Optional[str] = None,
    ) -> List[pathlib.Path]:
        """Persist witness traces for ``bugs`` under ``trace_dir``.

        Filenames are content-addressed by witness identity, so saving
        the same bug repeatedly overwrites rather than duplicates.
        """
        from ..trace.corpus import TraceCorpus
        from ..trace.format import TraceRecord

        corpus = TraceCorpus(trace_dir)
        return [
            corpus.save(TraceRecord.from_bug(self.program, self.config, bug, spec=spec))
            for bug in bugs
        ]

    # -- witness replay ---------------------------------------------------------

    def replay(self, bug: BugReport) -> Execution:
        """Deterministically re-execute a bug's witness schedule."""
        execution = Execution(self.program, self.config)
        for tid in bug.schedule:
            execution.execute(tid)
            if execution.finished:
                break
        return execution

    def explain(self, bug: BugReport) -> str:
        """Replay a bug and render an annotated trace.

        Preempting steps are marked ``*``; the paper argues the trace
        with the fewest preemptions is the simplest explanation of a
        concurrency error, and ICB's witnesses are exactly those.
        """
        execution = self.replay(bug)
        header = bug.describe()
        return f"{header}\ntrace (preempting steps marked *):\n{execution.describe_trace()}"

