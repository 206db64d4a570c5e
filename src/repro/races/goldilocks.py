"""The Goldilocks lockset-transfer race detector.

Goldilocks (Elmas, Qadeer, Tasiran, FATES/RV 2006) is the detector the
paper's CHESS uses to check each explored execution.  It maintains, for
every data variable ``x``, a *lockset* ``LS(x)`` containing the threads
and synchronization elements that currently "own" the variable; a
thread may access ``x`` race-free exactly when it belongs to ``LS(x)``.
Synchronization operations *transfer* ownership by growing locksets.

Transfer rules (eager formulation):

* access of ``x`` by ``t``: race iff ``LS(x)`` is non-empty and ``t``
  is not in it; afterwards ``LS(x) := {t}``;
* acquire-like op on sync element ``s`` by ``t``: every lockset
  containing ``s`` gains ``t``;
* release-like op on ``s`` by ``t``: every lockset containing ``t``
  gains ``s``.

The paper's happens-before relation orders *all* accesses to the same
synchronization variable, not only release-acquire pairs; with
``conservative=True`` (the default) every synchronization access is
treated as both acquire-like and release-like, which makes Goldilocks
compute exactly that relation and agree with the vector-clock tracker.
``conservative=False`` gives the classic release-acquire semantics used
in the ablation benchmarks.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, MutableSequence, Optional, Set, Tuple, Union

from ..core.effects import EffectKind
from ..core.objects import ABSENT, SharedObject
from ..core.thread import ThreadId

#: Lockset elements are threads or synchronization objects' names.
Element = Union[ThreadId, str]

#: Synchronization effect kinds with acquire semantics (the issuing
#: thread *absorbs* orderings published at the element).
_ACQUIRE_KINDS = frozenset(
    {
        EffectKind.ACQUIRE,
        EffectKind.TRY_ACQUIRE,
        EffectKind.WAIT,
        EffectKind.SEM_ACQUIRE,
        EffectKind.RW_ACQUIRE_READ,
        EffectKind.RW_ACQUIRE_WRITE,
        EffectKind.ATOMIC_READ,
        EffectKind.START,
        EffectKind.JOIN,
        EffectKind.CV_WAIT,
    }
)

#: Synchronization effect kinds with release semantics (the issuing
#: thread *publishes* its orderings to the element).
_RELEASE_KINDS = frozenset(
    {
        EffectKind.RELEASE,
        EffectKind.SIGNAL,
        EffectKind.RESET,
        EffectKind.SEM_RELEASE,
        EffectKind.RW_RELEASE,
        EffectKind.ATOMIC_WRITE,
        EffectKind.SPAWN,
        EffectKind.EXIT,
        EffectKind.CV_NOTIFY,
        EffectKind.CV_BROADCAST,
    }
)

#: Read-modify-write kinds have both directions even in classic mode.
_BOTH_KINDS = frozenset(
    {EffectKind.CAS, EffectKind.ATOMIC_ADD, EffectKind.EXCHANGE, EffectKind.ALLOC, EffectKind.FREE}
)


class GoldilocksDetector:
    """Online Goldilocks race detection over one execution.

    Variables and synchronization objects are keyed by name, unique
    within an execution and equal across executions of one program.
    Once :meth:`keep_journal` has started the journal, every change is
    journaled, and :meth:`rollback` undoes changes back to a :meth:`mark`.
    """

    def __init__(self, conservative: bool = True) -> None:
        self.conservative = conservative
        self._locksets: Dict[str, Set[Element]] = {}
        #: ``(lockset, elements added)`` for a transfer, or
        #: ``(None, (name, previous lockset or ABSENT))`` for an access;
        #: until :meth:`keep_journal`, a deque that drops what is appended.
        self._journal: MutableSequence[Tuple[Optional[Set[Element]], Any]] = deque(maxlen=0)

    # -- undo journal ---------------------------------------------------------

    def keep_journal(self) -> None:
        """Journal every change from here on, so it can be rolled back."""
        self._journal = []

    def mark(self) -> int:
        """A position in the journal to :meth:`rollback` to."""
        return len(self._journal)

    def rollback(self, mark: int) -> None:
        """Undo every change made since ``mark``."""
        journal = self._journal
        locksets = self._locksets
        for lockset, change in reversed(journal[mark:]):
            if lockset is not None:
                lockset.difference_update(change)
            else:
                name, previous = change
                if previous is ABSENT:
                    del locksets[name]
                else:
                    locksets[name] = previous
        del journal[mark:]

    # -- event hooks ------------------------------------------------------

    def on_sync(
        self, tid: ThreadId, obj: SharedObject, kind: EffectKind
    ) -> None:
        """Process a synchronization access (lockset transfer)."""
        if self.conservative or kind in _BOTH_KINDS:
            acquire = release = True
        else:
            acquire = kind in _ACQUIRE_KINDS
            release = kind in _RELEASE_KINDS
        name = obj.name
        journal = self._journal
        for ls in self._locksets.values():
            grew: List[Element] = []
            if acquire and name in ls and tid not in ls:
                grew.append(tid)
            if release and tid in ls and name not in ls:
                grew.append(name)
            if grew:
                ls.update(grew)
                journal.append((ls, grew))

    def on_data(
        self, tid: ThreadId, var: SharedObject, is_write: bool
    ) -> Optional[str]:
        """Process a data access; return a race description or None.

        Matches the paper's formal definition only on write-involved
        conflicts when combined with the engine's default settings; the
        engine consults its vector-clock tracker for read/write
        distinction, so this detector flags any not-owned access.
        """
        name = var.name
        ls = self._locksets.get(name)
        race: Optional[str] = None
        if ls and tid not in ls:
            race = (
                f"goldilocks: thread {tid} accessed {name} without "
                f"ownership (lockset: {self._render(ls)})"
            )
        self._journal.append((None, (name, ABSENT if ls is None else ls)))
        self._locksets[name] = {tid}
        return race

    @staticmethod
    def _render(ls: Set[Element]) -> str:
        return "{" + ", ".join(sorted(map(str, ls))) + "}"
