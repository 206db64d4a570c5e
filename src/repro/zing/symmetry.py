"""Heap-symmetry reduction: canonical freezing of model states.

ZING "performs state-space reduction by exploiting heap-symmetry": two
states that differ only in the identities of heap objects are the same
state.  Models represent heap identities with :class:`Ref` values;
:func:`canonicalize` freezes a nested state and renumbers every ``Ref``
by first encounter along a deterministic traversal, so any bijective
renaming of references yields the identical canonical state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable

from ..core.objects import ENCODERS
from ..errors import ProgramDefinitionError


@dataclass(frozen=True)
class Ref:
    """A symbolic heap reference (identity, not value).

    Allocate fresh ones with increasing ids (e.g. from a model-global
    counter); symmetry reduction erases the concrete ids.
    """

    id: int

    def __repr__(self) -> str:
        return f"Ref({self.id})"


@dataclass(frozen=True)
class _CanonRef:
    """A reference renumbered to its canonical (traversal-order) id."""

    id: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ref#{self.id}"


# Fingerprints digest the canonical form through ``encode``.
ENCODERS[_CanonRef] = lambda value: b"r%d;" % value.id


def canonicalize(value: Any, _renaming: Dict[int, int] | None = None) -> Hashable:
    """Freeze ``value`` into a hashable canonical form.

    Dicts become key-sorted tuples, lists/tuples become tuples, sets
    become sorted tuples, and :class:`Ref` values are renumbered in
    first-encounter order.  Keys must not themselves be references (the
    traversal must be orderable before renaming); store ref-keyed maps
    as sorted association lists or key them by stable data instead.
    """
    if _renaming is None:
        _renaming = {}
    return _freeze(value, _renaming)


def _freeze(value: Any, renaming: Dict[int, int]) -> Hashable:
    if isinstance(value, Ref):
        canonical = renaming.get(value.id)
        if canonical is None:
            canonical = len(renaming)
            renaming[value.id] = canonical
        return _CanonRef(canonical)
    if isinstance(value, dict):
        items = []
        for key in sorted(value, key=_key_order):
            if isinstance(key, Ref):
                raise ProgramDefinitionError(
                    "dict keys must not be Refs (order would depend on "
                    "concrete ids); use an association list"
                )
            items.append((key, _freeze(value[key], renaming)))
        return ("dict", tuple(items))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_freeze(v, renaming) for v in value))
    if isinstance(value, (set, frozenset)):
        frozen = [_freeze(v, renaming) for v in value]
        try:
            frozen.sort(key=repr)
        except TypeError:  # pragma: no cover - repr sort cannot fail
            pass
        return ("set", tuple(frozen))
    if isinstance(value, bytes):
        return ("bytes", value.hex())
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    raise ProgramDefinitionError(
        f"model state contains unfreezable value {value!r} "
        f"({type(value).__name__}); use ints, strings, tuples, lists, "
        "dicts, sets and Refs"
    )


def _key_order(key: Any) -> tuple:
    return (type(key).__name__, repr(key))
