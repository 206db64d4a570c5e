"""Immutable vector clocks over hierarchical thread identifiers.

A vector clock maps thread ids to logical times.  Step ``i`` of an
execution happens-before step ``j`` exactly when step ``i``'s clock is
componentwise dominated by step ``j``'s clock -- the standard encoding
of the paper's happens-before relation (Appendix A.1), whose dependence
relation is: same thread, or same synchronization variable.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple

from ..core.thread import ThreadId


class VectorClock:
    """An immutable mapping from :class:`ThreadId` to logical time.

    Missing entries are zero.  All operations return new clocks; the
    happens-before tracker shares clocks freely because of this.
    """

    __slots__ = ("_clocks",)

    _EMPTY: Optional["VectorClock"] = None

    def __init__(self, clocks: Optional[Mapping[ThreadId, int]] = None) -> None:
        self._clocks: Dict[ThreadId, int] = dict(clocks) if clocks else {}

    @classmethod
    def _adopt(cls, clocks: Dict[ThreadId, int]) -> "VectorClock":
        """Wrap ``clocks`` without copying; the caller gives it up."""
        clock = object.__new__(cls)
        clock._clocks = clocks
        return clock

    @classmethod
    def empty(cls) -> "VectorClock":
        """The all-zero clock (shared singleton)."""
        if cls._EMPTY is None:
            cls._EMPTY = cls()
        return cls._EMPTY

    # -- accessors ------------------------------------------------------

    def get(self, tid: ThreadId) -> int:
        """The component for ``tid`` (zero if absent)."""
        return self._clocks.get(tid, 0)

    def items(self) -> Iterator[Tuple[ThreadId, int]]:
        """Iterate over non-zero components."""
        return iter(self._clocks.items())

    def __len__(self) -> int:
        return len(self._clocks)

    # -- operations -----------------------------------------------------

    def tick(self, tid: ThreadId) -> "VectorClock":
        """Increment ``tid``'s component."""
        clocks = self._clocks.copy()
        clocks[tid] = clocks.get(tid, 0) + 1
        return VectorClock._adopt(clocks)

    def join(self, other: "VectorClock") -> "VectorClock":
        """Componentwise maximum of the two clocks."""
        if not other._clocks:
            return self
        if not self._clocks:
            return other
        clocks = self._clocks.copy()
        for tid, time in other._clocks.items():
            if clocks.get(tid, 0) < time:
                clocks[tid] = time
        return VectorClock._adopt(clocks)

    def covers(self, tid: ThreadId, time: int) -> bool:
        """Whether the epoch ``(tid, time)`` happens-before this clock."""
        return self._clocks.get(tid, 0) >= time

    def leq(self, other: "VectorClock") -> bool:
        """Componentwise comparison: ``self`` <= ``other``."""
        return all(other._clocks.get(tid, 0) >= t for tid, t in self._clocks.items())

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._normalized() == other._normalized()

    def __hash__(self) -> int:
        return hash(frozenset(self._normalized().items()))

    def _normalized(self) -> Dict[ThreadId, int]:
        return {tid: t for tid, t in self._clocks.items() if t}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{tid}:{t}" for tid, t in sorted(self._clocks.items()))
        return f"VC{{{inner}}}"
