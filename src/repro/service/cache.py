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
import pathlib
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from ..core.execution import ExecutionConfig
from ..core.program import Program
from ..errors import ReproError
from ..obs.instrument import Instrumentation
from ..persist import Decoder, ThreadTable, context_to_json, sanitize, write_atomic
from ..search.plan import CheckPlan, SearchLimits
from ..search.strategy import SearchContext, SearchResult

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


_DECODE = Decoder(ResultCacheError)


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
        table = ThreadTable()
        context = context_to_json(ctx, table, by_bound=True)  # fills the table
        return self._write(
            key,
            {
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
                "extras": [
                    [name, sanitize(value)] for name, value in sorted(search.extras.items())
                ],
                "context": context,
            },
        )

    def install(self, key: str, entry: Any) -> pathlib.Path:
        """Store an entry fetched from elsewhere (a peer daemon) under
        ``key``, once it decodes as this cache's own entry for ``key``;
        raises :class:`ResultCacheError` otherwise."""
        self._decode(entry, key)
        return self._write(key, entry)

    def _write(self, key: str, entry: Dict[str, Any]) -> pathlib.Path:
        target = self.path_for(key)
        try:
            write_atomic(target, json.dumps(entry, sort_keys=True) + "\n")
        except OSError as exc:
            raise ResultCacheError(f"cannot write cache entry {target}: {exc}") from exc
        return target

    # -- serving -------------------------------------------------------------

    def lookup(self, key: str) -> Optional["CheckResult"]:
        """Rebuild the cached result for ``key``, or ``None`` on miss."""
        path = self.path_for(key)
        if not path.exists():
            return None
        result = self._decode(_DECODE.read_json(path, "cache entry"), key)
        if self.obs is not None:
            self.obs.cache_served(key, result.program)
        return result

    def _decode(self, data: Any, key: str) -> "CheckResult":
        from ..chess.checker import CheckResult

        where = "cache entry"
        if not isinstance(data, dict):
            raise ResultCacheError(f"{where}: must be a JSON object")
        fmt = _DECODE.require(data, "format", str, where)
        if fmt != RESULT_CACHE_FORMAT:
            raise ResultCacheError(f"not a {RESULT_CACHE_FORMAT} file (format={fmt!r})")
        version = _DECODE.require(data, "version", int, where)
        if version != RESULT_CACHE_VERSION:
            raise ResultCacheError(
                f"unsupported cache version {version} "
                f"(this build reads {RESULT_CACHE_VERSION})"
            )
        if _DECODE.require(data, "key", str, where) != key:
            raise ResultCacheError(f"{where}: key {data['key']!r} is not {key!r}")
        threads = _DECODE.threads(data, where)
        ctx = _DECODE.context(
            _DECODE.require(data, "context", dict, where),
            threads,
            SearchContext(SearchLimits(stop_on_first_bug=bool(data.get("stop_on_first_bug")))),
            by_bound=True,
        )
        extras: Dict[str, Any] = dict(_DECODE.key_values(data, "extras", where))
        extras["cache_hit"] = True
        extras["served_from"] = key
        search = SearchResult(
            strategy=_DECODE.require(data, "strategy", str, where),
            completed=_DECODE.require(data, "completed", bool, where),
            stop_reason=_DECODE.require(data, "stop_reason", str, where),
            context=ctx,
            extras=extras,
        )
        return CheckResult(
            program=_DECODE.require(data, "program", str, where),
            search=search,
            certified_bound=_DECODE.optional_int(data, "certified_bound"),
        )

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
