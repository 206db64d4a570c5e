"""One check's description: :class:`CheckPlan` and its budgets.

The paper's guarantee is about one search: ICB up to a preemption
bound, under budgets.  A plan is that search's settings -- the bound,
Algorithm 1's work-item table, the worker count and the budgets
(:class:`SearchLimits`) -- and every layer builds, validates, keys and
serialises a check through it: the checker, the job queue and its
journal, the wire, the HTTP client and the CLI.  So each setting, its
default and every refusal of a value or a combination is defined here
and nowhere else, and a future bound parameter enters once.

A plan owns:

* its validation (:meth:`CheckPlan.__post_init__` and :func:`refuse`,
  which both ICB engines also call): a refused plan cannot be built,
  so a bad job is refused at submit, not after its runs fail.  The one
  exception is a plan folded from a journal record
  (``from_json(record=True)``), which may predate the refusal; running
  it refuses it when its strategy is built;
* building its strategy (:meth:`CheckPlan.strategy`): serial ICB, or
  the parallel coordinator for ``workers`` above 1;
* the result-cache key (:meth:`CheckPlan.cache_key`) and the
  checkpoint fingerprint (:meth:`CheckPlan.fingerprint`);
* its flat JSON form (:meth:`CheckPlan.to_json`,
  :meth:`CheckPlan.from_json`), the six job fields the journal, the
  wire and ``JobQueue.submit``'s keywords carry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..core.execution import ExecutionConfig
    from ..core.program import Program
    from .strategy import Strategy


@dataclass(frozen=True)
class SearchLimits:
    """Resource budget for one search run.

    ``None`` means unlimited.  When a budget is exhausted the search
    stops cleanly and the result is marked incomplete; everything
    accumulated so far remains valid (this is how the fixed-budget
    coverage-growth figures are produced).
    """

    max_executions: Optional[int] = None
    max_transitions: Optional[int] = None
    max_seconds: Optional[float] = None
    stop_on_first_bug: bool = False

    def with_stop_on_first_bug(self, value: bool = True) -> "SearchLimits":
        """A copy with ``stop_on_first_bug`` set, all else preserved.

        Callers must use this instead of rebuilding limits field by
        field, so newly added budget fields can never be silently
        dropped along the way.
        """
        return dataclasses.replace(self, stop_on_first_bug=value)


class PlanError(ReproError, ValueError):
    """A plan the checker refuses: a bad value or combination."""


#: Type tags of the flat JSON form; ``int?`` also accepts null.
TYPE_CHECKS: Dict[str, Callable[[Any], bool]] = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "int?": lambda v: v is None or (isinstance(v, int) and not isinstance(v, bool)),
    "bool": lambda v: isinstance(v, bool),
}

#: The flat JSON form: name -> (type tag, default).  ``max_seconds`` is
#: not in it: a wall-clock budget makes a job's outcome depend on the
#: machine, so a job cannot carry one.
FLAT_FIELDS: Dict[str, Any] = {
    "max_bound": ("int?", None),
    "workers": ("int?", None),
    "stop_on_first_bug": ("bool", False),
    "max_executions": ("int?", None),
    "max_transitions": ("int?", None),
    "state_caching": ("bool", False),
}


def refuse(
    max_bound: Optional[int],
    state_caching: bool = False,
    workers: Optional[int] = None,
    parallel: bool = False,
) -> None:
    """Raise :class:`PlanError` for settings no ICB engine runs.

    ``parallel`` is whether the search runs on the parallel
    coordinator, whose workers each hold their own work-item table.
    """
    if max_bound is not None and max_bound < 0:
        raise PlanError("max_bound must be non-negative")
    if workers is not None and workers < 1:
        raise PlanError("workers must be at least 1")
    if state_caching and parallel:
        raise PlanError(
            "state_caching is per-process and defeats its purpose under "
            "parallel exploration; run serially for the ZING configuration"
        )


@dataclass(frozen=True)
class CheckPlan:
    """What one check searches (see module docstring).

    Args:
        max_bound: stop ICB after completing this preemption bound
            (``None``: until the space is exhausted).
        state_caching: enable Algorithm 1's work-item table (the ZING
            configuration).
        workers: above 1, shard each bound's frontier across this many
            worker processes (:mod:`repro.parallel`).
        limits: execution/transition/time budgets; ``None`` is no
            budget.
    """

    max_bound: Optional[int] = None
    state_caching: bool = False
    workers: Optional[int] = None
    limits: SearchLimits = SearchLimits()

    def __post_init__(self) -> None:
        if self.limits is None:
            object.__setattr__(self, "limits", SearchLimits())
        for name, value in self.to_json().items():
            tag = FLAT_FIELDS[name][0]
            if not TYPE_CHECKS[tag](value):
                raise PlanError(
                    f"field {name!r} must be {tag}, got {type(value).__name__}"
                )
        refuse(self.max_bound, self.state_caching, self.workers, self.parallel)

    @property
    def parallel(self) -> bool:
        """Whether the search runs on the parallel coordinator."""
        return self.workers is not None and self.workers > 1

    def first_bug(self) -> "CheckPlan":
        """This plan, stopping at its first bug."""
        return dataclasses.replace(
            self, limits=self.limits.with_stop_on_first_bug()
        )

    @classmethod
    def take(cls, plan: Optional["CheckPlan"], options: Dict[str, Any]) -> "CheckPlan":
        """``plan``, or the plan built from the plan fields popped out of
        ``options`` (a caller's keyword arguments); not both."""
        given = {name: options.pop(name) for name in _FIELDS if name in options}
        if plan is None:
            return cls(**given)
        if given:
            raise PlanError(f"pass a plan or {', '.join(given)}, not both")
        return plan

    # -- the flat JSON form ----------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """The six job fields, as the journal and the wire carry them."""
        limits = self.limits
        return {
            "max_bound": self.max_bound,
            "workers": self.workers,
            "stop_on_first_bug": limits.stop_on_first_bug,
            "max_executions": limits.max_executions,
            "max_transitions": limits.max_transitions,
            "state_caching": self.state_caching,
        }

    @classmethod
    def from_json(
        cls, data: Mapping[str, Any], record: bool = False
    ) -> "CheckPlan":
        """The plan of a flat JSON form; absent fields take defaults.

        Refuses unknown keys and invalid plans.  ``record`` is for
        folding a journal only: the mapping is a whole job record, keys
        that are not the plan's are ignored, and the values are taken
        unvalidated, because a journal may hold a plan from before
        submit refused it (running such a job refuses it then, when its
        strategy is built).
        """
        if not record:
            unknown = [key for key in data if key not in FLAT_FIELDS]
            if unknown:
                raise PlanError(f"unknown field {unknown[0]!r}")

        def get(name: str) -> Any:
            return data.get(name, FLAT_FIELDS[name][1])

        values = {
            "max_bound": get("max_bound"),
            "state_caching": get("state_caching"),
            "workers": get("workers"),
            "limits": SearchLimits(
                max_executions=get("max_executions"),
                max_transitions=get("max_transitions"),
                stop_on_first_bug=get("stop_on_first_bug"),
            ),
        }
        if not record:
            return cls(**values)
        plan = object.__new__(cls)
        for name, value in values.items():
            object.__setattr__(plan, name, value)
        return plan

    # -- what a plan builds ------------------------------------------------------

    def strategy(
        self,
        custom: Optional["Strategy"] = None,
        wrapped: bool = False,
        settings: Any = None,
        trace_dir: Any = None,
        trace_spec: Optional[str] = None,
    ) -> "Strategy":
        """The search this plan runs.

        ``custom`` replaces ICB (any strategy of :mod:`repro.search`);
        only the budgets apply to it, so a bound, the work-item table,
        workers, or a checkpoint or cache (``wrapped``) is refused with
        it.  ``settings``, ``trace_dir`` and ``trace_spec`` go to the
        parallel coordinator.  Both ICB engines call :func:`refuse`,
        so a plan folded from a journal record is refused here.
        """
        if custom is not None:
            if (
                wrapped
                or self.state_caching
                or self.max_bound is not None
                or self.workers is not None
            ):
                raise PlanError(
                    "max_bound, state_caching, workers, checkpoint and cache "
                    "apply only to the default ICB strategy"
                )
            return custom
        if self.parallel:
            from ..parallel.coordinator import ParallelCoordinator

            return ParallelCoordinator(
                workers=self.workers,
                max_bound=self.max_bound,
                state_caching=self.state_caching,
                settings=settings,
                trace_dir=trace_dir,
                trace_spec=trace_spec,
            )
        from .icb import IterativeContextBounding

        return IterativeContextBounding(
            max_bound=self.max_bound, state_caching=self.state_caching
        )

    def fingerprint(
        self,
        program: "Program",
        config: Optional["ExecutionConfig"] = None,
        analysis: bool = False,
    ) -> Dict[str, Any]:
        """The identity a checkpoint of this search binds to.

        Serial and parallel ICB share the strategy name ``"icb"``: they
        explore the same executions, so a checkpoint written by either
        engine can be resumed by the other.  The budgets and the bound
        are not part of it: resuming an interrupted run with a bigger
        budget or a deeper bound is the point of the exercise.
        """
        from ..core.execution import ExecutionConfig
        from ..trace.format import ProgramFingerprint, config_to_json

        fp = ProgramFingerprint.of(program)
        return {
            "program": {"name": fp.name, "structure": fp.structure},
            "config": config_to_json(config or ExecutionConfig()),
            "strategy": "icb",
            "state_caching": self.state_caching,
            "analysis": analysis,
        }

    def cache_key(
        self,
        program: "Program",
        config: Optional["ExecutionConfig"] = None,
        analysis: bool = False,
    ) -> str:
        """The content address of this check's outcome.

        Everything that determines it: the program fingerprint, the
        replay-relevant config, the outcome-relevant budgets and the
        strategy shape.  ``workers`` is left out, because serial and
        parallel runs report identical results; so is ``max_seconds``,
        because a run with a wall-clock budget is never cached.
        """
        fingerprint = self.fingerprint(program, config, analysis)
        limits = self.limits
        payload = {
            "program": fingerprint["program"],
            "config": fingerprint["config"],
            "limits": {
                "max_executions": limits.max_executions,
                "max_transitions": limits.max_transitions,
                "stop_on_first_bug": limits.stop_on_first_bug,
            },
            "strategy": {
                "name": "icb",
                "max_bound": self.max_bound,
                "state_caching": self.state_caching,
                "analysis": analysis,
            },
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()


#: The plan's own fields, the keywords :meth:`CheckPlan.take` accepts.
_FIELDS = tuple(f.name for f in dataclasses.fields(CheckPlan))
