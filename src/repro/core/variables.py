"""Shared variables: plain data variables and atomic (sync) variables.

The distinction between :class:`SharedVar` (a member of the paper's
``DataVar`` set) and :class:`AtomicVar` (a member of ``SyncVar``)
determines where the ``sync_only`` scheduling policy introduces
scheduling points.  The paper's CHESS infers the partition dynamically
from how real binaries use memory; here the partition is explicit in
the API: interlocked operations are only available on
:class:`AtomicVar`, and plain reads/writes of an :class:`AtomicVar`
have volatile (synchronizing) semantics, like ``volatile`` fields in
Java or interlocked-accessed words in Win32 programs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable

from ..errors import BugKind
from .effects import Effect, EffectKind
from .objects import BugSignal, SharedObject

if TYPE_CHECKING:  # pragma: no cover
    from .thread import ThreadState
    from .world import World


def _require_hashable(value: Any, where: str) -> Any:
    try:
        hash(value)
    except TypeError:
        raise BugSignal(
            BugKind.INVARIANT,
            f"unhashable value stored in {where}: {value!r}",
        ) from None
    return value


class SharedVar(SharedObject):
    """A plain shared data variable (``DataVar`` in the paper).

    Accesses are *data* accesses: under the ``sync_only`` policy they
    execute atomically with the preceding synchronization access and
    are checked for data races.  Values must be hashable so they can be
    folded into state fingerprints.
    """

    is_sync = False

    def __init__(self, world: "World", name: str, initial: Any = None) -> None:
        super().__init__(world, name)
        self.initial = initial
        self.value = initial

    # -- effect constructors (yielded by thread bodies) ---------------

    def read(self) -> Effect:
        """Read the variable; the yield result is its current value."""
        return Effect(EffectKind.READ, self)

    def write(self, value: Any) -> Effect:
        """Write ``value`` to the variable."""
        return Effect(EffectKind.WRITE, self, (value,))

    # -- semantics ----------------------------------------------------

    def apply(self, effect: Effect, thread: "ThreadState") -> Any:
        if effect.kind is EffectKind.READ:
            return self.value
        if effect.kind is EffectKind.WRITE:
            self.value = _require_hashable(effect.args[0], self.name)
            return None
        return super().apply(effect, thread)

    def snapshot(self) -> Hashable:
        return ("var", self.value)

    def restore(self, state: Any) -> None:
        self.value = state[1]

    def is_write(self, effect: Effect) -> bool:
        """Whether ``effect`` modifies this variable (for race checks)."""
        return effect.kind is EffectKind.WRITE


class AtomicVar(SharedObject):
    """An atomic shared variable (a member of ``SyncVar``).

    Supports the interlocked operations of the Win32 API the paper's
    benchmarks use: atomic read/write, compare-and-swap, fetch-and-add,
    and exchange.  Every access is a synchronization access: it is a
    scheduling point under ``sync_only``, and it orders the
    happens-before relation with every other access to the same
    variable (the paper's dependence relation makes *all* same-sync-var
    accesses dependent).
    """

    is_sync = True

    def __init__(self, world: "World", name: str, initial: Any = 0) -> None:
        super().__init__(world, name)
        self.initial = initial
        self.value = initial

    # -- effect constructors -------------------------------------------

    def read(self) -> Effect:
        """Volatile read; the yield result is the current value."""
        return Effect(EffectKind.ATOMIC_READ, self)

    def write(self, value: Any) -> Effect:
        """Volatile write of ``value``."""
        return Effect(EffectKind.ATOMIC_WRITE, self, (value,))

    def cas(self, expected: Any, new: Any) -> Effect:
        """Compare-and-swap; the yield result is ``True`` on success."""
        return Effect(EffectKind.CAS, self, (expected, new))

    def add(self, delta: Any) -> Effect:
        """Atomic add; the yield result is the *new* value, matching
        Win32 ``InterlockedIncrement``/``InterlockedDecrement``."""
        return Effect(EffectKind.ATOMIC_ADD, self, (delta,))

    def exchange(self, new: Any) -> Effect:
        """Atomic exchange; the yield result is the *old* value."""
        return Effect(EffectKind.EXCHANGE, self, (new,))

    # -- semantics ----------------------------------------------------

    def apply(self, effect: Effect, thread: "ThreadState") -> Any:
        kind = effect.kind
        if kind is EffectKind.ATOMIC_READ:
            return self.value
        if kind is EffectKind.ATOMIC_WRITE:
            self.value = _require_hashable(effect.args[0], self.name)
            return None
        if kind is EffectKind.CAS:
            expected, new = effect.args
            if self.value == expected:
                self.value = _require_hashable(new, self.name)
                return True
            return False
        if kind is EffectKind.ATOMIC_ADD:
            self.value = self.value + effect.args[0]
            return self.value
        if kind is EffectKind.EXCHANGE:
            old = self.value
            self.value = _require_hashable(effect.args[0], self.name)
            return old
        return super().apply(effect, thread)

    def snapshot(self) -> Hashable:
        return ("atomic", self.value)

    def restore(self, state: Any) -> None:
        self.value = state[1]


def make_array(world: "World", name: str, values: list, atomic: bool = False):
    """Create a list of shared variables modelling a shared array.

    Each element is an independent variable named ``name[i]``; accesses
    to distinct indices are independent steps, matching how the paper's
    benchmarks (e.g. the work-stealing queue's circular buffer) use
    arrays.
    """
    cls = AtomicVar if atomic else SharedVar
    return [cls(world, f"{name}[{i}]", v) for i, v in enumerate(values)]
