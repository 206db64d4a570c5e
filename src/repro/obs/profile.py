"""Phase timers: where does the wall time of a search go?

The search loop decomposes into recurring kinds of work:

* ``schedule`` -- asking the space which threads are enabled;
* ``execute`` -- running one transition;
* ``replay`` -- re-executing a schedule from the start to reach a
  state the live execution is not at (the price of stateless search),
  whichever query forced it;
* ``fingerprint`` -- canonical state hashing;
* ``race-detect`` -- happens-before data-race checks, on live and
  replayed steps alike.

A :class:`Profiler` accumulates exact per-phase totals from
``perf_counter`` pairs.  Phases nest (a replay inside a ``schedule``
query, a race check inside ``execute``), and each phase is billed only
its own time: the time of the phases nested inside it is subtracted.
So the phases never overlap, and with the ``unaccounted`` remainder
(search bookkeeping and everything else outside a phase) a serial
run's shares sum to 100% of its elapsed time.  Full-fidelity timing
costs two clock reads per hooked call, so it is opt-in
(``Instrumentation(profiling=True)``, CLI ``--profile``); the
always-on sampled latency histograms live in :mod:`repro.obs.metrics`
instead.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: Canonical phase names, in reporting order.
PHASES: Tuple[str, ...] = (
    "schedule",
    "execute",
    "replay",
    "fingerprint",
    "race-detect",
)


#: The report row for elapsed time outside every phase.
UNACCOUNTED = "unaccounted"


class Profiler:
    """Exact accumulated wall time per phase, nested phases excluded.

    :attr:`total` is the time billed to every phase so far; a caller
    timing a span notes it at the start, and the growth of ``total``
    by the end is the time of the phases nested in the span, which
    :meth:`add_span` subtracts.
    """

    __slots__ = ("seconds", "calls", "total")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.total = 0.0

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + calls
        self.total += seconds

    def add_span(self, phase: str, elapsed: float, total_at_start: float) -> None:
        """Bill one span of ``elapsed`` seconds to ``phase``, less the
        phases nested in it (billed since ``total`` read
        ``total_at_start``)."""
        self.add(phase, elapsed - (self.total - total_at_start))

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Picklable/mergeable form: phase -> {seconds, calls}."""
        return {
            phase: {"seconds": self.seconds[phase], "calls": self.calls.get(phase, 0)}
            for phase in self.seconds
        }

    def absorb(self, data: Dict[str, Dict[str, float]]) -> None:
        for phase, cells in data.items():
            self.add(phase, cells["seconds"], int(cells["calls"]))

    def report(self, elapsed: Optional[float] = None) -> str:
        return self.render(self.as_dict(), elapsed)

    @staticmethod
    def render(
        data: Dict[str, Dict[str, float]], elapsed: Optional[float] = None
    ) -> str:
        """Aligned per-phase table; stable order, known phases first.

        With ``elapsed``, a last ``unaccounted`` row holds the elapsed
        time outside every phase (never below zero: merged parallel
        profiles sum the workers' phases, which ran concurrently).
        """
        known = [p for p in PHASES if p in data]
        extra = sorted(p for p in data if p not in PHASES)
        rows = [
            (phase, data[phase]["seconds"], str(int(data[phase]["calls"])))
            for phase in known + extra
        ]
        if elapsed and elapsed > 0:
            billed = sum(cells["seconds"] for cells in data.values())
            rows.append((UNACCOUNTED, max(0.0, elapsed - billed), "-"))
        lines = ["phase profile:"]
        lines.append("  phase         seconds     calls  share")
        for phase, seconds, calls in rows:
            share = (
                f"{100 * seconds / elapsed:5.1f}%"
                if elapsed and elapsed > 0
                else "     -"
            )
            lines.append(f"  {phase:<12}  {seconds:8.4f}  {calls:>8}  {share}")
        return "\n".join(lines)
