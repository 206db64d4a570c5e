"""Counters, gauges, latency histograms and foldable snapshots.

A live :class:`MetricsRegistry` holds what only the instrumentation
measures -- executions per bound, replays, race checks, service
counters, gauges, and latency distributions fed by *sampled* timing
(the instrumentation's phase hooks read the clock on a stride rather
than on every call) -- plus the search totals, which arrive from
``SearchContext`` once per finished search.

A :class:`MetricsSnapshot` freezes the registry into plain dicts: it
is picklable and JSON-serializable (versioned, like the trace format).
:meth:`MetricsRegistry.absorb` folds a snapshot into a registry -- a
parallel worker's shard, a checkpoint's saved metrics, a finished
search's totals -- with the same algebra as ``SearchContext.absorb``:
sums for counters and per-bound breakdowns, bucket-wise sums for
histograms, maxima for gauges, so the result does not depend on the
order or grouping of the parts.
"""

from __future__ import annotations

import json
import pathlib
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple, Union

from ..errors import ReproError
from .events import ObsFormatError
from .profile import Profiler

#: Identifies a metrics file; version is bumped on schema breaks.
METRICS_FORMAT = "repro-metrics"
METRICS_VERSION = 1

#: The counters only ``SearchContext`` and the work-item table count.
#: They reach a registry, with ``states_by_bound``, once per finished
#: search (``Instrumentation.search_finished``).
SEARCH_TOTALS = (
    "executions",
    "transitions",
    "distinct_states",
    "bugs_found",
    "cache_lookups",
    "cache_hits",
)

#: Default latency buckets (seconds): 1-2-5 per decade, 1us .. 1s.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1e-6, 2e-6, 5e-6,
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    1e-1, 2e-1, 5e-1,
    1.0,
)


class Histogram:
    """Fixed-boundary histogram of observed values (seconds).

    ``counts[i]`` counts observations ``<= bounds[i]``; the final
    slot counts overflows.  Fixed shared boundaries make histograms
    from different workers mergeable by plain elementwise addition.
    """

    __slots__ = ("bounds", "counts", "total", "count", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = 0.0

    def record(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bucket boundary containing the ``q`` quantile."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        hist = cls(tuple(data["bounds"]))
        counts = list(data["counts"])
        if len(counts) != len(hist.counts):
            raise ObsFormatError("histogram counts do not match its bounds")
        hist.counts = counts
        hist.total = float(data["total"])
        hist.count = int(data["count"])
        hist.min = float(data["min"]) if hist.count else float("inf")
        hist.max = float(data["max"])
        return hist

    def absorb(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ReproError("cannot merge histograms with different bounds")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.total += other.total
        self.count += other.count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)


@dataclass
class MetricsSnapshot:
    """A frozen, picklable view of one run's metrics.

    ``states_by_bound`` is the histogram of minimal reaching
    preemption counts (``SearchContext.states_by_bound`` of each
    finished search) and ``executions_by_bound`` counts completed
    executions per iteration bound of the strategy that ran.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    executions_by_bound: Dict[int, int] = field(default_factory=dict)
    states_by_bound: Dict[int, int] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    profile: Dict[str, Dict[str, float]] = field(default_factory=dict)
    elapsed: float = 0.0

    # -- conveniences ------------------------------------------------------

    @property
    def executions(self) -> int:
        return self.counters.get("executions", 0)

    @property
    def transitions(self) -> int:
        return self.counters.get("transitions", 0)

    @property
    def distinct_states(self) -> int:
        return self.counters.get("distinct_states", 0)

    def rates(self) -> Dict[str, float]:
        """Derived throughput figures (per second of elapsed time)."""
        if self.elapsed <= 0:
            return {}
        return {
            "executions_per_sec": self.executions / self.elapsed,
            "transitions_per_sec": self.transitions / self.elapsed,
            "states_per_sec": self.distinct_states / self.elapsed,
        }

    def since(self, base: "MetricsSnapshot") -> "MetricsSnapshot":
        """What the registry counted after ``base``, an earlier
        snapshot of it.

        Counters, per-bound breakdowns and histogram buckets are
        differences; gauges, folded by maximum, and a histogram's
        ``min``/``max`` are kept as they are now.  The phase profile is
        left out.
        """

        def minus(now: Dict[Any, int], then: Dict[Any, int]) -> Dict[Any, int]:
            return {k: v - then.get(k, 0) for k, v in now.items() if v != then.get(k, 0)}

        histograms: Dict[str, Dict[str, Any]] = {}
        for name, data in self.histograms.items():
            old = base.histograms.get(name)
            if old is None:
                histograms[name] = data
            elif data["count"] != old["count"]:
                histograms[name] = dict(
                    data,
                    counts=[a - b for a, b in zip(data["counts"], old["counts"])],
                    total=data["total"] - old["total"],
                    count=data["count"] - old["count"],
                )
        return MetricsSnapshot(
            counters=minus(self.counters, base.counters),
            gauges=dict(self.gauges),
            executions_by_bound=minus(self.executions_by_bound, base.executions_by_bound),
            states_by_bound=minus(self.states_by_bound, base.states_by_bound),
            histograms=histograms,
            elapsed=self.elapsed - base.elapsed,
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": METRICS_FORMAT,
            "version": METRICS_VERSION,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "executions_by_bound": {str(k): v for k, v in self.executions_by_bound.items()},
            "states_by_bound": {str(k): v for k, v in self.states_by_bound.items()},
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
            "profile": {k: dict(v) for k, v in self.profile.items()},
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsSnapshot":
        if not isinstance(data, dict) or data.get("format") != METRICS_FORMAT:
            raise ObsFormatError("not a repro-metrics document")
        if data.get("version") != METRICS_VERSION:
            raise ObsFormatError(
                f"unsupported metrics version {data.get('version')!r}"
            )
        try:
            return cls(
                counters={str(k): int(v) for k, v in data["counters"].items()},
                gauges={str(k): float(v) for k, v in data["gauges"].items()},
                executions_by_bound={
                    int(k): int(v) for k, v in data["executions_by_bound"].items()
                },
                states_by_bound={
                    int(k): int(v) for k, v in data["states_by_bound"].items()
                },
                histograms={
                    str(k): Histogram.from_dict(v).to_dict()
                    for k, v in data["histograms"].items()
                },
                profile={
                    str(k): {"seconds": float(v["seconds"]), "calls": int(v["calls"])}
                    for k, v in data["profile"].items()
                },
                elapsed=float(data["elapsed"]),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ObsFormatError(f"malformed metrics document: {exc}") from exc

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "MetricsSnapshot":
        try:
            data = json.loads(pathlib.Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ObsFormatError(f"cannot read metrics file {path}: {exc}") from exc
        return cls.from_dict(data)

    # -- rendering ---------------------------------------------------------

    def summary(self) -> str:
        """Human-readable report (what ``repro stats`` prints)."""
        lines = [
            f"executions: {self.executions}",
            f"transitions: {self.transitions}",
            f"distinct states: {self.distinct_states}",
            f"bugs: {self.counters.get('bugs_found', 0)}",
            f"elapsed: {self.elapsed:.3f}s",
        ]
        for name, value in sorted(self.rates().items()):
            lines.append(f"{name.replace('_', ' ')}: {value:,.0f}")
        if self.counters.get("race_checks"):
            lines.append(
                f"race checks: {self.counters['race_checks']} "
                f"({self.counters.get('races_found', 0)} hit)"
            )
        if self.counters.get("replays"):
            steps = self.counters.get("replay_steps", 0)
            lines.append(f"replays: {self.counters['replays']} ({steps} steps re-executed)")
            if self.counters.get("restores"):
                lines.append(
                    f"restores: {self.counters['restores']} "
                    f"({self.counters.get('restore_steps', 0)} of those steps "
                    "rebuilt without the engine)"
                )
        service = [
            ("checkpoints saved", self.counters.get("checkpoints_saved", 0)),
            ("checkpoint resumes", self.counters.get("checkpoint_resumes", 0)),
            ("result cache hits", self.counters.get("result_cache_hits", 0)),
        ]
        if any(count for _, count in service):
            lines.append(
                "service: " + ", ".join(f"{count} {name}" for name, count in service)
            )
        fleet = [
            ("http requests", self.counters.get("http_requests", 0)),
            ("lease claims", self.counters.get("lease_claims", 0)),
            ("lease renewals", self.counters.get("lease_renewals", 0)),
            ("lease takeovers", self.counters.get("lease_takeovers", 0)),
            ("cache sync hits", self.counters.get("cache_sync_hits", 0)),
        ]
        if any(count for _, count in fleet):
            lines.append(
                "fleet: " + ", ".join(f"{count} {name}" for name, count in fleet)
            )
        if self.counters.get("invivo_runs"):
            lines.append(
                f"invivo: {self.counters['invivo_runs']} run(s), "
                f"{self.gauges.get('invivo_threads', 0):.0f} os thread(s), "
                f"{self.gauges.get('invivo_handshakes', 0):.0f} handshake(s), "
                f"{self.gauges.get('invivo_abandoned', 0):.0f} abandoned"
            )
        if self.executions_by_bound or self.states_by_bound:
            lines.append("per-bound breakdown:")
            bounds = sorted(set(self.executions_by_bound) | set(self.states_by_bound))
            lines.append("  bound  executions  states")
            for bound in bounds:
                lines.append(
                    f"  {bound:>5}  {self.executions_by_bound.get(bound, 0):>10}"
                    f"  {self.states_by_bound.get(bound, 0):>6}"
                )
        for name in sorted(self.histograms):
            hist = Histogram.from_dict(self.histograms[name])
            if hist.count:
                lines.append(
                    f"{name} (sampled, n={hist.count}): "
                    f"mean {hist.mean * 1e6:.1f}us, "
                    f"p50 <= {hist.quantile(0.5) * 1e6:.1f}us, "
                    f"p99 <= {hist.quantile(0.99) * 1e6:.1f}us"
                )
        if any(cells["calls"] for cells in self.profile.values()):
            lines.append(Profiler.render(self.profile, self.elapsed))
        return "\n".join(lines)


class MetricsRegistry:
    """The live, mutable metrics store of one instrumented run."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.executions_by_bound: Dict[int, int] = {}
        self.states_by_bound: Dict[int, int] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: Phase timings: billed by a profiling ``Instrumentation``,
        #: summed from absorbed snapshots.
        self.profile = Profiler()
        self._started = time.perf_counter()

    # -- updates (hot path: plain dict arithmetic) -------------------------

    def add(self, counter: str, delta: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + delta

    def set_gauge(self, gauge: str, value: float) -> None:
        self.gauges[gauge] = value

    def histogram(self, name: str) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        return hist

    # -- folding -------------------------------------------------------------

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Fold ``snapshot``'s counters, gauges, per-bound breakdowns,
        histograms and phase profile into this registry."""
        for key, value in snapshot.counters.items():
            self.add(key, value)
        for key, value in snapshot.gauges.items():
            self.gauges[key] = max(self.gauges.get(key, value), value)
        for bound, count in snapshot.executions_by_bound.items():
            self.executions_by_bound[bound] = (
                self.executions_by_bound.get(bound, 0) + count
            )
        for bound, count in snapshot.states_by_bound.items():
            self.states_by_bound[bound] = self.states_by_bound.get(bound, 0) + count
        for name, data in snapshot.histograms.items():
            self.histogram(name).absorb(Histogram.from_dict(data))
        self.profile.absorb(snapshot.profile)

    # -- freezing ----------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            executions_by_bound=dict(self.executions_by_bound),
            states_by_bound=dict(self.states_by_bound),
            histograms={
                name: hist.to_dict() for name, hist in self.histograms.items()
            },
            profile=self.profile.as_dict(),
            elapsed=time.perf_counter() - self._started,
        )
