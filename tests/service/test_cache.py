"""The content-addressed result cache: a check is answered from its
plan's exact key or by the search, never from stored witnesses."""

from __future__ import annotations

import pytest

from repro import ChessChecker, SearchLimits
from repro.obs import Instrumentation, Sink
from repro.programs import resolve_builtin, toy
from repro.service.cache import ResultCache, result_cache_key
from repro.service.daemon import CheckingService

from ._parity import identities, summary


class _NoExploration:
    """Stands in for ProgramStateSpace: constructing it means the
    checker tried to explore, which a cache hit must never do."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("cache hit must not touch the state space")


def test_cache_hit_serves_without_exploring(tmp_path, monkeypatch):
    spec, bound = "toy:stats-assert", 1
    cache = ResultCache(tmp_path / "cache")
    first = ChessChecker(resolve_builtin(spec)).check(max_bound=bound, cache=cache)
    assert len(cache) == 1

    monkeypatch.setattr("repro.chess.checker.ProgramStateSpace", _NoExploration)
    served = ChessChecker(resolve_builtin(spec)).check(max_bound=bound, cache=cache)
    assert served.search.extras.get("cache_hit") is True
    assert summary(served) == summary(first)
    assert identities(served) == identities(first)
    assert [b.describe() for b in served.bugs] == [b.describe() for b in first.bugs]


def test_key_separates_programs_bounds_limits_and_options(tmp_path):
    program = resolve_builtin("toy:stats-assert")
    base = result_cache_key(program, None, limits=None, max_bound=1,
                            state_caching=False, analysis=False)
    assert base == result_cache_key(program, None, limits=None, max_bound=1,
                                    state_caching=False, analysis=False)
    variants = [
        result_cache_key(toy.racy_counter(), None, limits=None, max_bound=1,
                         state_caching=False, analysis=False),
        result_cache_key(program, None, limits=None, max_bound=2,
                         state_caching=False, analysis=False),
        result_cache_key(program, None, limits=SearchLimits(max_executions=5),
                         max_bound=1, state_caching=False, analysis=False),
        result_cache_key(program, None, limits=None, max_bound=1,
                         state_caching=True, analysis=False),
        result_cache_key(program, None, limits=None, max_bound=1,
                         state_caching=False, analysis=True),
    ]
    assert len({base, *variants}) == len(variants) + 1


def test_wall_clock_budgets_bypass_the_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    limits = SearchLimits(max_seconds=60)
    checker = ChessChecker(resolve_builtin("toy:stats-assert"))
    first = checker.check(max_bound=1, limits=limits, cache=cache)
    second = checker.check(max_bound=1, limits=limits, cache=cache)
    assert len(cache) == 0
    assert not first.search.extras.get("cache_hit")
    assert not second.search.extras.get("cache_hit")


def test_incomplete_results_are_not_stored(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    result = ChessChecker(resolve_builtin("wsq:pop-race")).check(
        max_bound=2, limits=SearchLimits(max_transitions=50), cache=cache
    )
    assert not result.search.completed
    assert len(cache) == 0


def test_stop_on_first_bug_results_are_stored(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    limits = SearchLimits(stop_on_first_bug=True)
    checker = ChessChecker(resolve_builtin("toy:stats-assert"))
    first = checker.check(max_bound=1, limits=limits, cache=cache)
    assert first.found_bug and len(cache) == 1
    served = checker.check(max_bound=1, limits=limits, cache=cache)
    assert served.search.extras.get("cache_hit") is True
    assert identities(served) == identities(first)


def _traced_full_check(service, spec, bound):
    """A full check of ``spec`` that fills the service's cache and its
    trace corpus, as a finished job of the same spec would."""
    return ChessChecker(resolve_builtin(spec)).check(
        max_bound=bound, trace_dir=service.traces_dir, trace_spec=spec,
        cache=service.cache,
    )


def test_stored_witnesses_do_not_answer_a_lower_bound(tmp_path):
    # wsq:pop-race's bug needs 2 preemptions; its witness in the corpus
    # must not stand in for the bound-0 search, which is clean.
    service = CheckingService(tmp_path)
    full = _traced_full_check(service, "wsq:pop-race", 2)
    assert full.search.first_bug.preemptions == 2
    assert list(service.traces_dir.glob("*.trace.json"))

    result = ChessChecker(resolve_builtin("wsq:pop-race")).check(
        max_bound=0, limits=SearchLimits(stop_on_first_bug=True),
        cache=service.cache,
    )
    assert not result.found_bug
    assert result.certified_bound == 0


@pytest.mark.parametrize("spec", ["wsq:pop-race", "bluetooth", "ape:stats-race"])
def test_cached_find_bug_gives_the_searched_witness(tmp_path, spec):
    service = CheckingService(tmp_path)
    _traced_full_check(service, spec, 2)
    searched = ChessChecker(resolve_builtin(spec)).find_bug(max_bound=2)
    cached = ChessChecker(resolve_builtin(spec)).find_bug(
        max_bound=2, cache=service.cache
    )
    assert cached.identity == searched.identity


def test_a_bound_zero_job_after_a_bound_two_job_finds_no_bug(tmp_path):
    service = CheckingService(tmp_path)
    deep = service.queue.submit("wsq:pop-race", max_bound=2)
    service.serve(once=True)
    assert service.load_result(deep.id)["found_bug"] is True
    shallow = service.queue.submit(
        "wsq:pop-race", max_bound=0, stop_on_first_bug=True
    )
    service.serve(once=True)
    payload = service.load_result(shallow.id)
    assert payload["found_bug"] is False
    assert payload["certified_bound"] == 0


class _Recorder(Sink):
    def __init__(self):
        self.events = []

    def handle(self, event):
        self.events.append(event)


def test_each_hit_is_reported_once(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    checker = ChessChecker(resolve_builtin("toy:stats-assert"))
    checker.check(max_bound=1, cache=cache)
    obs = Instrumentation()
    served = obs.bus.subscribe(_Recorder())
    checker.check(max_bound=1, cache=cache, obs=obs)
    kinds = [event.kind for event in served.events]
    assert kinds.count("result_cache_served") == 1
    assert obs.snapshot().counters.get("result_cache_hits") == 1


def test_cache_and_checkpoint_reject_custom_strategies(tmp_path):
    from repro import DepthFirstSearch

    checker = ChessChecker(toy.racy_counter())
    with pytest.raises(ValueError):
        checker.check(strategy=DepthFirstSearch(),
                      cache=ResultCache(tmp_path / "cache"))
    with pytest.raises(ValueError):
        checker.check(strategy=DepthFirstSearch(),
                      checkpoint=tmp_path / "x.ckpt.json")
