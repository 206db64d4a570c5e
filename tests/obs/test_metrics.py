"""Metrics correctness: exact counter parity with ``SearchContext``,
the ``MetricsRegistry.absorb`` fold algebra (associativity, order
independence), serialization."""

from __future__ import annotations

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ChessChecker
from repro.errors import ReproError
from repro.obs import Histogram, Instrumentation, MetricsRegistry, MetricsSnapshot
from repro.obs.metrics import METRICS_VERSION, ObsFormatError
from repro.programs import resolve_builtin, toy
from repro.programs.bluetooth import bluetooth
from repro.search import icb
from repro.search.plan import SearchLimits
from repro.search.statecache import WorkItemCache

# Dyadic rationals: exactly representable in binary floating point, so
# sums are associative and snapshot equality is exact, not approximate.
dyadic = st.integers(min_value=0, max_value=4096).map(lambda k: k / 1024)

counter_maps = st.dictionaries(
    st.sampled_from(["executions", "transitions", "distinct_states", "race_checks"]),
    st.integers(min_value=0, max_value=10**6),
    max_size=4,
)
gauge_maps = st.dictionaries(
    st.sampled_from(["current_bound", "completed_bound"]), dyadic, max_size=2
)
bound_maps = st.dictionaries(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=10**4),
    max_size=4,
)
profile_maps = st.dictionaries(
    st.sampled_from(["schedule", "execute", "fingerprint"]),
    st.fixed_dictionaries(
        {"seconds": dyadic, "calls": st.integers(min_value=0, max_value=10**5)}
    ),
    max_size=3,
)


@st.composite
def histograms(draw):
    hist = Histogram()
    for value in draw(st.lists(dyadic, max_size=8)):
        hist.record(value)
    return hist.to_dict()


@st.composite
def snapshots(draw):
    return MetricsSnapshot(
        counters=draw(counter_maps),
        gauges=draw(gauge_maps),
        executions_by_bound=draw(bound_maps),
        states_by_bound=draw(bound_maps),
        histograms=draw(
            st.dictionaries(
                st.sampled_from(["execute_latency", "race_check_latency"]),
                histograms(),
                max_size=2,
            )
        ),
        profile=draw(profile_maps),
        elapsed=draw(dyadic),
    )


def fold(*parts):
    """A fresh registry's snapshot after absorbing ``parts`` in order."""
    registry = MetricsRegistry()
    for part in parts:
        registry.absorb(part)
    return registry.snapshot()


def comparable(snap):
    """``snap`` as a dict without ``elapsed``, the registry's own age."""
    data = snap.to_dict()
    del data["elapsed"]
    return data


class TestMergeAlgebra:
    """Merging snapshots is ``MetricsRegistry.absorb``: a fold whose
    result is independent of the order and grouping of the parts."""

    @settings(max_examples=50, deadline=None)
    @given(snapshots(), snapshots(), snapshots())
    def test_merge_is_associative(self, a, b, c):
        flat = comparable(fold(a, b, c))
        assert comparable(fold(fold(a, b), c)) == flat
        assert comparable(fold(a, fold(b, c))) == flat

    @settings(max_examples=50, deadline=None)
    @given(snapshots(), snapshots())
    def test_merge_is_commutative(self, a, b):
        assert comparable(fold(a, b)) == comparable(fold(b, a))

    @settings(max_examples=25, deadline=None)
    @given(snapshots())
    def test_merge_of_one_preserves_totals(self, a):
        folded = fold(a)
        assert folded.counters == a.counters
        assert folded.gauges == a.gauges
        assert folded.executions_by_bound == a.executions_by_bound
        assert folded.states_by_bound == a.states_by_bound

    @settings(max_examples=25, deadline=None)
    @given(snapshots(), snapshots())
    def test_counters_sum_and_gauges_max(self, a, b):
        folded = fold(a, b)
        for key in set(a.counters) | set(b.counters):
            assert folded.counters[key] == a.counters.get(key, 0) + b.counters.get(
                key, 0
            )
        for key in set(a.gauges) | set(b.gauges):
            present = [g[key] for g in (a.gauges, b.gauges) if key in g]
            assert folded.gauges[key] == max(present)


class TestContextParity:
    """The acceptance criterion: snapshot counters must equal the
    ``SearchContext`` exactly, including the per-bound state buckets."""

    def assert_parity(self, program, **kwargs):
        obs = Instrumentation()
        result = ChessChecker(program).check(obs=obs, **kwargs)
        ctx = result.search.context
        snap = obs.snapshot()
        assert snap.executions == ctx.executions
        assert snap.transitions == ctx.transitions
        assert snap.distinct_states == len(ctx.states)
        assert snap.states_by_bound == ctx.states_by_bound()
        assert sum(snap.executions_by_bound.values()) == ctx.executions
        assert snap.counters.get("bugs_found", 0) == len(ctx.bugs)
        return snap

    def test_toy_counter(self):
        self.assert_parity(toy.atomic_counter_assert(), max_bound=2)

    def test_bluetooth(self):
        snap = self.assert_parity(bluetooth(buggy=True), max_bound=1)
        # Rebucketing exercised: states first seen at bound 1 that are
        # later reached preemption-free must land in bucket 0 only.
        assert set(snap.states_by_bound) == {0, 1}

    def test_dfs_strategy(self):
        from repro.search.dfs import DepthFirstSearch

        obs = Instrumentation()
        result = ChessChecker(toy.atomic_counter_assert()).check(
            strategy=DepthFirstSearch(), obs=obs
        )
        snap = obs.snapshot()
        assert snap.executions == result.executions
        assert snap.transitions == result.transitions


class TestSearchTotals:
    """Totals reach the registry once per finished search, from the
    context and the work-item table."""

    def test_shared_instrumentation_sums_both_contexts(self):
        # The ``repro serve --metrics-out`` case: one Instrumentation
        # serves consecutive checks (and ``/v1/stats`` reads it).
        obs = Instrumentation()
        first = ChessChecker(toy.atomic_counter_assert()).check(max_bound=2, obs=obs)
        second = ChessChecker(bluetooth(buggy=True)).check(max_bound=1, obs=obs)
        a, b = first.search.context, second.search.context
        snap = obs.snapshot()
        assert snap.counters["searches"] == 2
        assert snap.executions == a.executions + b.executions
        assert snap.transitions == a.transitions + b.transitions
        assert snap.distinct_states == len(a.states) + len(b.states)
        assert snap.counters["bugs_found"] == len(a.bugs) + len(b.bugs)
        buckets = collections.Counter(a.states_by_bound())
        buckets.update(b.states_by_bound())
        assert snap.states_by_bound == dict(buckets)
        assert sum(snap.executions_by_bound.values()) == a.executions + b.executions

    def test_resumed_search_reports_its_own_totals(self, tmp_path):
        # A checkpoint saved under a shared registry holds the totals of
        # the searches that finished in it before; resuming into a fresh
        # registry must not count them again.
        path = tmp_path / "shared.ckpt.json"
        shared = Instrumentation()
        ChessChecker(toy.atomic_counter_assert()).check(max_bound=2, obs=shared)
        ChessChecker(resolve_builtin("wsq:pop-race")).check(
            max_bound=2, obs=shared, limits=SearchLimits(max_transitions=600),
            checkpoint=path,
        )
        fresh = Instrumentation()
        result = ChessChecker(resolve_builtin("wsq:pop-race")).check(
            max_bound=2, obs=fresh, checkpoint=path
        )
        ctx = result.search.context
        snap = fresh.snapshot()
        assert result.search.extras.get("resumed") is True
        assert snap.executions == ctx.executions
        assert snap.transitions == ctx.transitions
        assert snap.distinct_states == len(ctx.states)
        assert snap.states_by_bound == ctx.states_by_bound()
        assert snap.counters["bugs_found"] == len(ctx.bugs)

    def test_cache_totals_count_every_table_lookup(self, monkeypatch):
        lookups = []

        class CountingCache(WorkItemCache):
            def seen(self, fingerprint, tid):
                hit = super().seen(fingerprint, tid)
                lookups.append(hit)
                return hit

        monkeypatch.setattr(icb, "WorkItemCache", CountingCache)
        obs = Instrumentation()
        ChessChecker(bluetooth(buggy=True)).check(
            max_bound=2, state_caching=True, obs=obs
        )
        snap = obs.snapshot()
        assert snap.counters["cache_lookups"] == len(lookups)
        assert snap.counters["cache_hits"] == sum(lookups) > 0


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        obs = Instrumentation(profiling=True)
        ChessChecker(toy.atomic_counter_assert()).check(max_bound=1, obs=obs)
        snap = obs.snapshot()
        path = snap.save(tmp_path / "metrics.json")
        loaded = MetricsSnapshot.load(path)
        assert loaded.to_dict() == snap.to_dict()

    def test_version_guard(self, tmp_path):
        data = MetricsSnapshot().to_dict()
        data["version"] = METRICS_VERSION + 1
        with pytest.raises(ObsFormatError, match="unsupported metrics version"):
            MetricsSnapshot.from_dict(data)

    def test_format_guard(self):
        with pytest.raises(ObsFormatError, match="not a repro-metrics"):
            MetricsSnapshot.from_dict({"format": "something-else"})

    def test_malformed_document(self):
        data = MetricsSnapshot().to_dict()
        del data["counters"]
        with pytest.raises(ObsFormatError, match="malformed metrics"):
            MetricsSnapshot.from_dict(data)

    def test_unreadable_file(self, tmp_path):
        bad = tmp_path / "not-json.json"
        bad.write_text("{")
        with pytest.raises(ObsFormatError, match="cannot read"):
            MetricsSnapshot.load(bad)

    def test_summary_mentions_headline_numbers(self):
        snap = MetricsSnapshot(
            counters={"executions": 7, "transitions": 42, "distinct_states": 5},
            executions_by_bound={0: 3, 1: 4},
            states_by_bound={0: 5},
            elapsed=1.0,
        )
        text = snap.summary()
        assert "executions: 7" in text
        assert "distinct states: 5" in text
        assert "per-bound breakdown" in text


class TestHistogram:
    def test_buckets_and_stats(self):
        hist = Histogram(bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0, 3.0):
            hist.record(value)
        assert hist.counts == [1, 1, 2]
        assert hist.count == 4
        assert hist.min == 0.5
        assert hist.max == 3.0
        assert hist.mean == pytest.approx(2.0)
        assert hist.quantile(0.25) == 1.0
        assert hist.quantile(1.0) == 3.0

    def test_absorb_requires_matching_bounds(self):
        with pytest.raises(ReproError):
            Histogram(bounds=(1.0,)).absorb(Histogram(bounds=(2.0,)))

    def test_empty_histogram_round_trip(self):
        hist = Histogram(bounds=(1.0,))
        rebuilt = Histogram.from_dict(hist.to_dict())
        assert rebuilt.count == 0
        assert rebuilt.quantile(0.5) == 0.0


class TestRegistry:
    def test_absorb_sums_worker_snapshot(self):
        registry = MetricsRegistry()
        registry.add("executions", 10)
        registry.absorb(
            MetricsSnapshot(
                counters={"executions": 5}, executions_by_bound={1: 5}, elapsed=0.5
            )
        )
        snap = registry.snapshot()
        assert snap.executions == 15
        assert snap.executions_by_bound == {1: 5}
