"""Content-addressed cache of completed checking results (format v1).

A systematic-testing service re-checks the same programs over and
over: every CI run resubmits the whole suite, most of which did not
change.  This module makes the second check of an unchanged program
free.

**Keying.**  A cache entry is addressed by the SHA-256 of everything
that determines a check's outcome: the program fingerprint (name plus
thread-structure hash), the replay-relevant ``ExecutionConfig`` knobs,
the outcome-relevant budgets and the strategy shape, which the check's
plan computes (:meth:`~repro.search.plan.CheckPlan.cache_key`).
``workers`` is deliberately *excluded*: serial and parallel runs
report identical results, so they share entries.  ``max_seconds`` is
excluded too, but differently: a wall-clock budget makes the outcome
machine-dependent, so such runs are never cached at all
(:meth:`ResultCache.cacheable`).

**Storing.**  Only *authoritative* results are stored: runs that
exhausted their space (or reached their configured ``max_bound``), or
``stop_on_first_bug`` runs that found their bug.  A run cut short by
an execution budget is reproducible and therefore also storable; one
cut short by wall clock is not.

**Serving.**  A hit rebuilds a :class:`~repro.chess.checker.CheckResult`
without constructing a state space or executing a single transition.
Distinct states are restored as synthetic ``("cached", bound, i)``
fingerprints carrying the per-bound histogram -- counts, certificates
and bug reports are exact; only the raw fingerprint values, which no
verdict depends on, are not stored.  Served results carry
``extras["cache_hit"] = True`` and ``extras["served_from"]``.

**Corpus fast path.**  Independently of exact-key hits, a cache built
with a :class:`~repro.trace.corpus.TraceCorpus` can answer
``stop_on_first_bug`` checks by replaying stored witness traces for
the same program: a reproduced trace *is* the answer the search would
eventually produce, at the cost of one schedule replay instead of an
exploration (``extras["corpus_fastpath"] = True``).
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from ..core.execution import ExecutionConfig
from ..core.program import Program
from ..errors import ReproError
from ..obs.instrument import Instrumentation
from ..search.plan import CheckPlan, SearchLimits
from ..search.strategy import SearchContext, SearchResult
from .checkpoint import (
    CheckpointError,
    _bug_from_json,
    _bug_to_json,
    _require,
    _sanitize_detail,
    _ThreadTable,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..chess.checker import CheckResult
    from ..trace.corpus import TraceCorpus

RESULT_CACHE_FORMAT = "repro-result-cache"
RESULT_CACHE_VERSION = 1
RESULT_CACHE_SUFFIX = ".result.json"


class ResultCacheError(ReproError):
    """A cache entry violates the schema (or cannot be written)."""


def result_cache_key(
    program: Program,
    config: Optional[ExecutionConfig] = None,
    analysis: bool = False,
    **fields: Any,
) -> str:
    """The content address of one check's outcome: the
    :meth:`~repro.search.plan.CheckPlan.cache_key` of the plan whose
    fields are ``fields``."""
    return CheckPlan(**fields).cache_key(program, config, analysis)


def _extras_to_json(extras: Dict[str, Any]) -> List[List[Any]]:
    return [[key, _sanitize_detail(value)] for key, value in sorted(extras.items())]


def _extras_from_json(data: Any, where: str) -> Dict[str, Any]:
    if not isinstance(data, list):
        raise ResultCacheError(f"{where}: extras must be a list of pairs")
    extras: Dict[str, Any] = {}
    for i, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], str):
            raise ResultCacheError(f"{where}[{i}]: must be a [key, value] pair")
        extras[pair[0]] = pair[1]
    return extras


class ResultCache:
    """A directory of completed :class:`CheckResult` s, by content key.

    Args:
        root: directory holding ``<key>.result.json`` entries.
        corpus: optional witness-trace corpus enabling the
            ``stop_on_first_bug`` fast path (see module docstring).
    """

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        corpus: Optional["TraceCorpus"] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.corpus = corpus
        self.obs = obs

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key}{RESULT_CACHE_SUFFIX}"

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(
            1 for p in self.root.iterdir() if p.name.endswith(RESULT_CACHE_SUFFIX)
        )

    # -- policy --------------------------------------------------------------

    @staticmethod
    def cacheable(limits: Optional[SearchLimits]) -> bool:
        """Whether a check with these budgets may use the cache at all.

        Wall-clock budgets make the outcome a function of machine
        speed; such runs neither consult nor populate the cache.
        """
        return limits is None or limits.max_seconds is None

    @staticmethod
    def storable(result: "CheckResult") -> bool:
        """Whether ``result`` is authoritative enough to store.

        Completed searches are; so are ``stop_on_first_bug`` searches
        that found their bug (their early stop is the *defined*
        outcome, not an accident of scheduling).
        """
        search = result.search
        if search.completed:
            return True
        return bool(
            search.context.limits.stop_on_first_bug and search.context.bugs
        )

    # -- storing -------------------------------------------------------------

    def store(self, key: str, result: "CheckResult") -> Optional[pathlib.Path]:
        """Persist ``result`` under ``key`` if it is storable."""
        if not self.storable(result):
            return None
        search = result.search
        ctx = search.context
        table = _ThreadTable()
        bugs = [_bug_to_json(bug, table) for bug in ctx.bugs.values()]
        by_bound: Dict[int, int] = {}
        for bound in ctx.states.values():
            by_bound[bound] = by_bound.get(bound, 0) + 1
        payload = {
            "format": RESULT_CACHE_FORMAT,
            "version": RESULT_CACHE_VERSION,
            "key": key,
            "program": result.program,
            "strategy": search.strategy,
            "completed": search.completed,
            "stop_reason": search.stop_reason,
            "certified_bound": result.certified_bound,
            "stop_on_first_bug": ctx.limits.stop_on_first_bug,
            "threads": table.to_json(),
            "extras": _extras_to_json(search.extras),
            "context": {
                "executions": ctx.executions,
                "transitions": ctx.transitions,
                "analysis_pruned": ctx.analysis_pruned,
                "max_steps": ctx.max_steps,
                "max_blocking": ctx.max_blocking,
                "max_preemptions": ctx.max_preemptions,
                "states_by_bound": [
                    [bound, count] for bound, count in sorted(by_bound.items())
                ],
                "bugs": bugs,
                "history": [[e, s] for e, s in ctx.history],
            },
        }
        target = self.path_for(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(target.name + ".tmp")
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
            os.replace(tmp, target)
        except OSError as exc:
            raise ResultCacheError(f"cannot write cache entry {target}: {exc}") from exc
        return target

    # -- serving -------------------------------------------------------------

    def lookup(self, key: str) -> Optional["CheckResult"]:
        """Rebuild the cached result for ``key``, or ``None`` on miss."""
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ResultCacheError(f"cannot read cache entry {path}: {exc}") from exc
        result = self._decode(data, key)
        if self.obs is not None:
            self.obs.cache_served(key, result.program)
        return result

    def _decode(self, data: Any, key: str) -> "CheckResult":
        from ..chess.checker import CheckResult

        where = "cache entry"
        if not isinstance(data, dict):
            raise ResultCacheError(f"{where}: must be a JSON object")
        try:
            fmt = _require(data, "format", str, where)
            if fmt != RESULT_CACHE_FORMAT:
                raise ResultCacheError(
                    f"not a {RESULT_CACHE_FORMAT} file (format={fmt!r})"
                )
            version = _require(data, "version", int, where)
            if version != RESULT_CACHE_VERSION:
                raise ResultCacheError(
                    f"unsupported cache version {version} "
                    f"(this build reads {RESULT_CACHE_VERSION})"
                )
            threads = _ThreadTable.decode(
                _require(data, "threads", list, where), "threads"
            )
            context = _require(data, "context", dict, where)
            stop_on_first = bool(data.get("stop_on_first_bug"))
            ctx = SearchContext(SearchLimits(stop_on_first_bug=stop_on_first))
            ctx.executions = _require(context, "executions", int, "context")
            ctx.transitions = _require(context, "transitions", int, "context")
            ctx.analysis_pruned = _require(context, "analysis_pruned", int, "context")
            ctx.max_steps = _require(context, "max_steps", int, "context")
            ctx.max_blocking = _require(context, "max_blocking", int, "context")
            ctx.max_preemptions = _require(context, "max_preemptions", int, "context")
            states: Dict[Any, int] = {}
            for i, pair in enumerate(
                _require(context, "states_by_bound", list, "context")
            ):
                if (
                    not isinstance(pair, list)
                    or len(pair) != 2
                    or not all(
                        isinstance(v, int) and not isinstance(v, bool) for v in pair
                    )
                ):
                    raise ResultCacheError(
                        f"context.states_by_bound[{i}] must be a "
                        "[bound, count] int pair"
                    )
                bound, count = pair
                for j in range(count):
                    # Synthetic fingerprints: the histogram is exact,
                    # the raw hash values are not worth persisting.
                    states[("cached", bound, j)] = bound
            ctx.states = states
            for i, entry in enumerate(_require(context, "bugs", list, "context")):
                bug = _bug_from_json(entry, threads, f"context.bugs[{i}]")
                ctx.bugs[bug.signature] = bug
            history: List[Tuple[int, int]] = []
            for i, pair in enumerate(_require(context, "history", list, "context")):
                if (
                    not isinstance(pair, list)
                    or len(pair) != 2
                    or not all(
                        isinstance(v, int) and not isinstance(v, bool) for v in pair
                    )
                ):
                    raise ResultCacheError(
                        f"context.history[{i}] must be an [executions, states] pair"
                    )
                history.append((pair[0], pair[1]))
            ctx.history = history
            extras = _extras_from_json(_require(data, "extras", list, where), "extras")
            extras["cache_hit"] = True
            extras["served_from"] = key
            certified = data.get("certified_bound")
            if certified is not None and (
                not isinstance(certified, int) or isinstance(certified, bool)
            ):
                raise ResultCacheError("certified_bound must be an integer or null")
            search = SearchResult(
                strategy=_require(data, "strategy", str, where),
                completed=_require(data, "completed", bool, where),
                stop_reason=_require(data, "stop_reason", str, where),
                context=ctx,
                extras=extras,
            )
            return CheckResult(
                program=_require(data, "program", str, where),
                search=search,
                certified_bound=certified,
            )
        except CheckpointError as exc:
            # The shared decoding helpers raise their own error type.
            raise ResultCacheError(str(exc)) from exc

    # -- corpus fast path ----------------------------------------------------

    def corpus_fastpath(
        self,
        program: Program,
        config: Optional[ExecutionConfig] = None,
    ) -> Optional["CheckResult"]:
        """Answer a ``stop_on_first_bug`` check by replaying a stored
        witness trace of the same program, if one reproduces."""
        if self.corpus is None:
            return None
        from ..chess.checker import CheckResult
        from ..trace.replay import replay_trace

        for path, trace in self.corpus.matching(program):
            report = replay_trace(trace, program, config=config)
            if not report.reproduced or report.bug is None:
                continue
            bug = report.bug
            ctx = SearchContext(SearchLimits(stop_on_first_bug=True))
            ctx.executions = 1
            ctx.transitions = report.steps_replayed
            ctx.bugs[bug.signature] = bug
            result = CheckResult(
                program=program.name,
                search=SearchResult(
                    strategy="corpus-fastpath",
                    completed=False,
                    stop_reason="stopping at first bug",
                    context=ctx,
                    extras={
                        "corpus_fastpath": True,
                        "trace": path.name,
                    },
                ),
                certified_bound=None,
            )
            if self.obs is not None:
                self.obs.cache_served(f"corpus:{path.name}", program.name)
            return result
        return None
