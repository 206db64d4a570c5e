"""The deterministic companion of ``bench_obs_overhead.py``.

The benchmark times silent instrumentation against a 5% budget, but
host noise is larger than that margin.  This test counts instead: the
calls a silent :class:`~repro.obs.Instrumentation` receives per
transition on the same workload (bluetooth, ``max_bound=2``).  A hook
added to the per-step path raises the count by one per transition and
fails here on any machine.
"""

from __future__ import annotations

import collections

from repro import ChessChecker
from repro.obs import Instrumentation
from repro.programs.bluetooth import bluetooth

#: Measured at 2.29 calls per transition: ``hook_execute.start`` and
#: ``hook_fingerprint.start`` on every transition, plus per-execution
#: and stride-sampled calls.  ``SearchContext.visit`` calls a silent
#: instrumentation not at all.
MAX_CALLS_PER_TRANSITION = 2.4


class _CountingHook:
    """Counts ``start``/``stop`` on one phase hook and delegates."""

    def __init__(self, name, hook, counts):
        self._name, self._hook, self._counts = name, hook, counts

    def start(self):
        self._counts[f"{self._name}.start"] += 1
        return self._hook.start()

    def stop(self, t0):
        self._counts[f"{self._name}.stop"] += 1
        return self._hook.stop(t0)


def counting_instrumentation(counts):
    obs = Instrumentation()
    for name in vars(obs):
        if name.startswith("hook_"):
            setattr(obs, name, _CountingHook(name, getattr(obs, name), counts))
    for name in dir(Instrumentation):
        method = getattr(obs, name)
        if name.startswith("_") or not callable(method):
            continue

        def counted(*args, _method=method, _name=name, **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)

        setattr(obs, name, counted)
    return obs


def test_silent_instrumentation_calls_per_transition():
    counts = collections.Counter()
    result = ChessChecker(bluetooth(buggy=True)).check(
        max_bound=2, obs=counting_instrumentation(counts)
    )
    assert result.executions == 910, "workload drifted; retune the bound"
    per_transition = sum(counts.values()) / result.transitions
    assert per_transition <= MAX_CALLS_PER_TRANSITION, sorted(counts.items())
    # Every per-transition hook is seen, so a silent wrapper cannot
    # make the count vacuous.
    assert counts["hook_execute.start"] == result.transitions
