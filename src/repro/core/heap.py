"""A shared heap with lifetime checking.

Concurrent deallocation bugs -- freeing an object while another thread
still holds a live reference -- are a headline bug class in the paper
(the Dryad use-after-free of Figure 3 needs exactly one preemption).
This module provides heap objects whose every access is checked against
their lifetime:

* reading or writing a field of a freed object is a use-after-free;
* freeing a freed object is a double-free;
* operating on a synchronization object *embedded* in a freed heap
  object (via the ``guard`` parameter of :class:`~repro.core.sync.Mutex`
  and friends) is a use-after-free, modelling
  ``EnterCriticalSection(&freed->m_baseCS)``.

The allocation/free operations access the object's *header*, which is a
synchronization variable (a scheduling point); field accesses are data
accesses subject to race detection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Hashable

from ..errors import BugKind
from .effects import Effect, EffectKind
from .objects import BugSignal, SharedObject
from .variables import _require_hashable

if TYPE_CHECKING:  # pragma: no cover
    from .thread import ThreadState
    from .world import World


class HeapField(SharedObject):
    """One field of a heap object; a data variable with an owner."""

    is_sync = False

    def __init__(self, world: "World", owner: "HeapRef", field: str, initial: Any):
        super().__init__(world, f"{owner.name}.{field}")
        self.owner = owner
        self.field = field
        self.value = initial

    def apply(self, effect: Effect, thread: "ThreadState") -> Any:
        self.owner.check_alive(effect.kind.value, self.field)
        if effect.kind is EffectKind.HEAP_READ:
            return self.value
        if effect.kind is EffectKind.HEAP_WRITE:
            self.value = _require_hashable(effect.args[0], self.name)
            return None
        return super().apply(effect, thread)

    def snapshot(self) -> Hashable:
        return ("field", self.value)

    def restore(self, state: Any) -> None:
        self.value = state[1]

    def is_write(self, effect: Effect) -> bool:
        """Whether ``effect`` modifies this field (for race checks)."""
        return effect.kind is EffectKind.HEAP_WRITE


class HeapRef(SharedObject):
    """A reference to a heap-allocated object with named fields.

    The header (this object) is a synchronization variable accessed by
    ``free``; fields are independent data variables accessed with
    :meth:`read` and :meth:`write`.
    """

    is_sync = True

    def __init__(self, world: "World", name: str, fields: Dict[str, Any]):
        super().__init__(world, name)
        self.freed = False
        self.fields: Dict[str, HeapField] = {
            field: HeapField(world, self, field, value)
            for field, value in fields.items()
        }

    # -- effect constructors -------------------------------------------

    def read(self, field: str) -> Effect:
        """Read a field; the yield result is its value."""
        return Effect(EffectKind.HEAP_READ, self._field(field))

    def write(self, field: str, value: Any) -> Effect:
        """Write ``value`` into a field."""
        return Effect(EffectKind.HEAP_WRITE, self._field(field), (value,))

    def free(self) -> Effect:
        """Deallocate the object.  Any later access is a bug."""
        return Effect(EffectKind.FREE, self)

    # -- semantics ----------------------------------------------------

    def _field(self, field: str) -> HeapField:
        try:
            return self.fields[field]
        except KeyError:
            raise BugSignal(
                BugKind.INVARIANT,
                f"unknown field {field!r} of heap object {self.name}",
            ) from None

    def check_alive(self, operation: str, where: str = "") -> None:
        """Raise a use-after-free bug signal if the object is freed."""
        if self.freed:
            suffix = f".{where}" if where else ""
            raise BugSignal(
                BugKind.USE_AFTER_FREE,
                f"{operation} on freed object {self.name}{suffix}",
            )

    def apply(self, effect: Effect, thread: "ThreadState") -> Any:
        if effect.kind is EffectKind.FREE:
            if self.freed:
                raise BugSignal(
                    BugKind.DOUBLE_FREE,
                    f"double free of heap object {self.name}",
                )
            self.freed = True
            return None
        return super().apply(effect, thread)

    def snapshot(self) -> Hashable:
        return ("heapref", self.freed)

    def restore(self, state: Any) -> None:
        self.freed = state[1]
