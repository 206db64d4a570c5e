"""Search infrastructure: statistics and the strategy base.

Budgets (:class:`SearchLimits`) belong to a check's plan and live in
:mod:`repro.search.plan`.

A :class:`SearchContext` is shared by all strategies.  It accumulates
the quantities every experiment in the paper is built on:

* the set of distinct visited states, each tagged with the minimum
  preemption count at which it was reached (Figures 1 and 4 are
  cumulative histograms of this tag);
* the coverage history -- distinct states after each completed
  execution (Figures 2, 5 and 6 plot exactly this series);
* deduplicated bug reports, each kept with its minimal-preemption
  witness (Table 2);
* the per-execution maxima of steps K, blocking steps B and
  preemptions c (Table 1).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import (
    BugReport,
    SearchBudgetExceeded,
    SearchInterrupted,
)
from ..core.transition import StateSpace
from ..obs.history import CoverageRecorder
from ..obs.instrument import Instrumentation
from .plan import SearchLimits

#: How many transitions may pass between wall-clock reads in
#: ``SearchContext._check_budget``.  A transition takes ~1us while a
#: ``time.monotonic()`` call costs a comparable amount, so reading the
#: clock every transition roughly doubled the budget-check overhead
#: (see benchmarks/README.md).  Overshoot is bounded by the stride:
#: at worst ``TIME_CHECK_STRIDE - 1`` extra transitions run past the
#: deadline, microseconds in practice.
TIME_CHECK_STRIDE = 64


def _witness_key(bug: BugReport) -> Tuple[int, int, Tuple[Tuple[int, ...], ...]]:
    """Total order on witnesses of one defect: fewest preemptions,
    then shortest, then lexicographically smallest schedule."""
    return (bug.preemptions, len(bug.schedule), tuple(t.path for t in bug.schedule))


def _better_witness(challenger: BugReport, incumbent: Optional[BugReport]) -> bool:
    """Whether ``challenger`` is the witness to keep over ``incumbent``
    (``None`` when the defect is new).

    Deterministic regardless of discovery or arrival order, which is
    what makes cross-process bug deduplication well-defined.
    """
    return incumbent is None or _witness_key(challenger) < _witness_key(incumbent)


class SearchContext:
    """Shared statistics and budget enforcement for a search run."""

    def __init__(
        self,
        limits: Optional[SearchLimits] = None,
        obs: Optional[Instrumentation] = None,
        history_samples: int = 8192,
    ) -> None:
        self.limits = limits or SearchLimits()
        #: Optional instrumentation; ``None`` keeps the hot path free
        #: of any observability cost beyond one attribute test.
        self.obs = obs
        #: fingerprint -> minimal preemption count at which visited.
        self.states: Dict[Hashable, int] = {}
        #: bug signature -> minimal-preemption report.
        self.bugs: Dict[Tuple[Any, ...], BugReport] = {}
        self.executions = 0
        self.transitions = 0
        #: Deferrals ICB skipped because static analysis proved the
        #: preempted step thread-local (see ``docs/analysis.md``).
        self.analysis_pruned = 0
        #: Bounded recorder behind the :attr:`history` property.
        self._history = CoverageRecorder(max_samples=history_samples)
        self.max_steps = 0
        self.max_blocking = 0
        self.max_preemptions = 0
        self.started_at = time.monotonic()
        # Zero forces the very first _check_budget call to read the
        # clock, so max_seconds=0.0 still stops before any work.
        self._time_countdown = 0

    # -- recording ----------------------------------------------------------

    def record_initial(self, space: StateSpace, state: object) -> None:
        """Record the initial state before exploration starts."""
        fingerprint = space.fingerprint(state)
        if fingerprint not in self.states:
            self.states[fingerprint] = 0
            if self.obs is not None:
                self.obs.state_discovered(0, len(self.states))

    def visit(self, space: StateSpace, state: object) -> Hashable:
        """Record a state reached by one ``execute`` transition;
        returns its fingerprint."""
        self.transitions += 1
        fingerprint = space.fingerprint(state)
        preemptions = space.preemptions(state)
        known = self.states.get(fingerprint)
        if known is None or preemptions < known:
            self.states[fingerprint] = preemptions
        if self.obs is not None:
            self.obs.transition_observed(preemptions, known, len(self.states))
        for bug in space.bugs(state):
            self.note_bug(bug)
        self._check_budget()
        return fingerprint

    def note_terminal(self, space: StateSpace, state: object) -> None:
        """Record a completed (or budget/depth-pruned) execution."""
        self.executions += 1
        # Terminal-state conditions (e.g. a deadlock in the initial
        # state, before any transition was visited) surface here.
        for bug in space.bugs(state):
            self.note_bug(bug)
        if hasattr(space, "execution_stats"):
            steps, blocking, preemptions = space.execution_stats(state)
            self.max_steps = max(self.max_steps, steps)
            self.max_blocking = max(self.max_blocking, blocking)
            self.max_preemptions = max(self.max_preemptions, preemptions)
        self._history.record(self.executions, len(self.states))
        if self.obs is not None:
            self.obs.execution_finished(self.executions, len(self.states))
        self._check_budget()

    def note_bug(self, bug: BugReport) -> bool:
        """Record a bug, keeping the canonical minimal witness.

        The kept witness follows the same total order :meth:`absorb`
        uses (fewest preemptions, then shortest, then smallest
        schedule), so the witness -- and therefore
        :attr:`BugReport.identity` -- is a pure function of the
        explored space: serial, parallel and interrupted-then-resumed
        runs all converge on the same report.  Returns whether ``bug``
        became the kept witness.
        """
        signature = bug.signature
        known = self.bugs.get(signature)
        kept = _better_witness(bug, known)
        if kept:
            self.bugs[signature] = bug
        if self.obs is not None and (
            known is None or bug.preemptions < known.preemptions
        ):
            # Milestones only: a new defect, or a fewer-preemption
            # witness for a known one -- equal-preemption tie-break
            # refinements and re-encounters stay silent.
            self.obs.bug_found(bug, new=known is None)
        if self.limits.stop_on_first_bug:
            raise SearchInterrupted("stopping at first bug")
        return kept

    def absorb(self, other: "SearchContext") -> None:
        """Fold the statistics of a disjoint exploration into this one.

        Used by the parallel engine to fold each shard into the run's
        live context, and by :meth:`SearchResult.merge`:

        * executions, transitions and analysis-pruned deferrals are
          summed;
        * distinct states are unioned, each keeping the minimum
          preemption count;
        * bugs are deduplicated by :attr:`BugReport.signature`, keeping
          the witness :meth:`note_bug` would keep, so the result does
          not depend on the order parts arrive in;
        * per-execution maxima (K, B, c of Table 1) take the maximum;
        * ``other``'s coverage history is appended with its execution
          counts offset by this context's (cross-part state overlap
          makes the distinct counts approximate; the series is forced
          monotone).

        Never raises and emits nothing: budgets and
        ``stop_on_first_bug`` are the caller's to check afterwards.
        """
        states = self.states
        for fingerprint, preemptions in other.states.items():
            known = states.get(fingerprint)
            if known is None or preemptions < known:
                states[fingerprint] = preemptions
        bugs = self.bugs
        for bug in other.bugs.values():
            if _better_witness(bug, bugs.get(bug.signature)):
                bugs[bug.signature] = bug
        history = self.history
        high_water = history[-1][1] if history else 0
        points: List[Tuple[int, int]] = []
        for executions, distinct in other.history:
            high_water = max(high_water, distinct)
            points.append((self.executions + executions, high_water))
        if points:
            self._history.extend_raw(points)
        self.executions += other.executions
        self.transitions += other.transitions
        self.analysis_pruned += other.analysis_pruned
        self.max_steps = max(self.max_steps, other.max_steps)
        self.max_blocking = max(self.max_blocking, other.max_blocking)
        self.max_preemptions = max(self.max_preemptions, other.max_preemptions)

    # -- coverage history ----------------------------------------------------

    @property
    def history(self) -> List[Tuple[int, int]]:
        """(executions completed, distinct states) after each execution.

        Backed by a bounded :class:`CoverageRecorder`: under the
        default 8192-sample budget short runs (all the experiment
        scripts) see the exact per-execution series, while very long
        runs keep an evenly strided subsample plus the exact final
        point instead of growing without bound.
        """
        return self._history.samples()

    @history.setter
    def history(self, points: List[Tuple[int, int]]) -> None:
        self._history.replace(points)

    @property
    def history_recorder(self) -> CoverageRecorder:
        return self._history

    # -- budgets ------------------------------------------------------------

    def _check_budget(self) -> None:
        limits = self.limits
        if limits.max_executions is not None and self.executions >= limits.max_executions:
            raise SearchBudgetExceeded(f"execution budget {limits.max_executions} reached")
        if limits.max_transitions is not None and self.transitions >= limits.max_transitions:
            raise SearchBudgetExceeded(f"transition budget {limits.max_transitions} reached")
        if limits.max_seconds is not None:
            # The clock is read once per TIME_CHECK_STRIDE calls: a
            # monotonic() read costs about as much as a transition, so
            # checking every call doubled budget overhead for runs
            # that never come near their deadline.
            self._time_countdown -= 1
            if self._time_countdown < 0:
                self._time_countdown = TIME_CHECK_STRIDE - 1
                if time.monotonic() - self.started_at >= limits.max_seconds:
                    raise SearchBudgetExceeded(
                        f"time budget {limits.max_seconds}s reached"
                    )

    # -- pickling -----------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        # Instrumentation holds sinks (open files, streams) and never
        # crosses a process boundary; workers ship MetricsSnapshots.
        state = self.__dict__.copy()
        state["obs"] = None
        return state

    # -- derived views ----------------------------------------------------------

    def states_by_bound(self) -> Dict[int, int]:
        """How many distinct states need exactly ``c`` preemptions.

        ``result[c]`` is the number of states whose minimal reaching
        preemption count is ``c``; the cumulative sum over ``c`` is the
        coverage curve of Figures 1 and 4.
        """
        histogram: Dict[int, int] = {}
        for bound in self.states.values():
            histogram[bound] = histogram.get(bound, 0) + 1
        return dict(sorted(histogram.items()))

    def coverage_curve(self) -> List[Tuple[int, float]]:
        """Cumulative fraction of visited states per preemption bound."""
        histogram = self.states_by_bound()
        total = sum(histogram.values())
        curve: List[Tuple[int, float]] = []
        running = 0
        for bound, count in histogram.items():
            running += count
            curve.append((bound, running / total if total else 1.0))
        return curve


@dataclass
class SearchResult:
    """Outcome of one strategy run."""

    strategy: str
    completed: bool
    stop_reason: str
    context: SearchContext
    #: Strategy-specific extras, e.g. ICB's completed preemption bound.
    extras: Dict[str, Any] = field(default_factory=dict)

    # -- conveniences -----------------------------------------------------------

    @property
    def distinct_states(self) -> int:
        return len(self.context.states)

    @property
    def executions(self) -> int:
        return self.context.executions

    @property
    def transitions(self) -> int:
        return self.context.transitions

    @property
    def bugs(self) -> List[BugReport]:
        return sorted(
            self.context.bugs.values(), key=lambda b: (b.preemptions, str(b.kind))
        )

    @property
    def found_bug(self) -> bool:
        return bool(self.context.bugs)

    @property
    def first_bug(self) -> Optional[BugReport]:
        bugs = self.bugs
        return bugs[0] if bugs else None

    @property
    def history(self) -> List[Tuple[int, int]]:
        return self.context.history

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "complete" if self.completed else f"stopped ({self.stop_reason})"
        return (
            f"{self.strategy}: {self.executions} executions, "
            f"{self.distinct_states} states, {len(self.bugs)} bug(s), {status}"
        )

    # -- merging ----------------------------------------------------------------

    @classmethod
    def merge(
        cls,
        results: Sequence["SearchResult"],
        strategy: Optional[str] = None,
        completed: Optional[bool] = None,
        stop_reason: Optional[str] = None,
    ) -> "SearchResult":
        """Fold results of disjoint explorations into one.

        Usable for any partition of a search (e.g. per-bound runs):
        the parts' contexts are folded in order with
        :meth:`SearchContext.absorb`.  ``completed`` defaults to
        all-parts-completed; ``stop_reason`` to the first incomplete
        part's reason; ``extras["completed_bound"]`` to the parts'
        minimum (``None`` if any part certified nothing).
        """
        if not results:
            raise ValueError("merge needs at least one result")
        merged = SearchContext(results[0].context.limits)
        merged.started_at = min(r.context.started_at for r in results)
        for result in results:
            merged.absorb(result.context)
        if completed is None:
            completed = all(r.completed for r in results)
        if stop_reason is None:
            stop_reason = next(
                (r.stop_reason for r in results if not r.completed),
                "exhausted state space",
            )
        extras: Dict[str, Any] = {}
        bounds = [r.extras.get("completed_bound") for r in results]
        if any("completed_bound" in r.extras for r in results):
            extras["completed_bound"] = (
                None if any(b is None for b in bounds) else min(bounds)
            )
        return cls(
            strategy=strategy or results[0].strategy,
            completed=completed,
            stop_reason=stop_reason,
            context=merged,
            extras=extras,
        )


class Strategy(abc.ABC):
    """Base class for search strategies.

    Subclasses implement :meth:`_search`; the base class handles
    context creation, budget exhaustion and result packaging.
    """

    name = "strategy"

    def run(
        self,
        space: StateSpace,
        limits: Optional[SearchLimits] = None,
        context: Optional[SearchContext] = None,
        obs: Optional[Instrumentation] = None,
    ) -> SearchResult:
        """Explore ``space`` until done or out of budget."""
        ctx = context or SearchContext(limits, obs=obs)
        if obs is not None and ctx.obs is None:
            ctx.obs = obs
        obs = ctx.obs
        extras: Dict[str, Any] = {}
        if obs is not None:
            program = getattr(getattr(space, "program", None), "name", None)
            obs.search_started(self.name, program or type(space).__name__)
        try:
            ctx.record_initial(space, space.initial_state())
            self._search(space, ctx, extras)
            completed, reason = True, "exhausted state space"
        except SearchBudgetExceeded as exc:
            completed, reason = False, str(exc)
        except SearchInterrupted as exc:
            completed, reason = False, str(exc)
        if obs is not None:
            obs.search_finished(
                self.name,
                completed,
                reason,
                ctx.executions,
                ctx.transitions,
                len(ctx.states),
                len(ctx.bugs),
            )
        return SearchResult(
            strategy=self.name,
            completed=completed,
            stop_reason=reason,
            context=ctx,
            extras=extras,
        )

    @abc.abstractmethod
    def _search(
        self, space: StateSpace, ctx: SearchContext, extras: Dict[str, Any]
    ) -> None:
        """Strategy-specific exploration loop."""
