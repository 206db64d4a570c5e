"""Happens-before tracking and data-race detection.

The soundness of the ``sync_only`` scheduling reduction (Section 3.1 of
the paper, Theorems 2 and 3) requires every explored execution to be
checked for data races.  This package provides:

* :mod:`repro.races.vectorclock` -- immutable vector clocks.
* :mod:`repro.races.happens_before` -- the happens-before tracker used
  by the engine: clock propagation at synchronization accesses and a
  FastTrack-style race check at data accesses.
* :mod:`repro.races.goldilocks` -- the Goldilocks lockset-transfer
  algorithm (Elmas, Qadeer, Tasiran), the detector the paper's CHESS
  uses; provided both for fidelity and as a cross-check of the
  vector-clock detector.
"""

from .goldilocks import GoldilocksDetector
from .happens_before import HBTracker, RaceInfo
from .vectorclock import VectorClock

__all__ = [
    "GoldilocksDetector",
    "HBTracker",
    "RaceInfo",
    "VectorClock",
]
