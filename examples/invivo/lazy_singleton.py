"""Broken double-checked locking over unmodified ``threading`` code.

``Registry`` is written against the real ``threading`` module -- no
repro imports anywhere in the class -- and checked as-is through
:class:`repro.invivo.monkeypatch`, which substitutes the adapter
classes for ``threading.*`` inside this module.  The defect is the
missing re-check after acquiring the lock::

    if self._instance is None:      # unsynchronized fast path
        with self._lock:
            self._instance = ...    # BUG: no second `is None` check

Two threads can both see ``None`` before either takes the lock; the
second then constructs a second instance.  One preemption exposes it:
preempt the first thread after its fast-path check, right at its
pending lock acquire.

The instance fields are *plain attributes*: invisible to the
checker's race detection and state fingerprints (see the hidden-state
caveat in ``docs/invivo.md``).  The lint sees them, though:
``repro lint --module examples.invivo.lazy_singleton:make_program``
watches a bounded search and reports ``hidden-state`` findings for
``Registry._instance`` and ``Registry._creations`` in *both* variants:
in the fixed one, too, each client is the writer in some execution
(it is correct only because it re-checks under the lock, which race
detection cannot observe); ``ci/lint-baseline-invivo.txt`` records
them as known.  The
bug still surfaces dynamically because the program asserts its own
invariant -- the assertion runs on real Python state -- which is
exactly how unmodified code under in-vivo checking reports
corruption.
"""

import threading

from repro.invivo import InvivoProgram, monkeypatch

#: The seeded bug and the minimal preemption bound that exposes it.
EXPECTED = {"kind": "assertion", "bound": 1}


class Registry:
    """A lazily-created singleton with broken double-checked locking."""

    def __init__(self, safe: bool = False) -> None:
        self._lock = threading.Lock()
        self._instance = None
        self._creations = 0
        self._safe = safe

    def get_instance(self):
        if self._instance is None:
            with self._lock:
                if self._safe and self._instance is not None:
                    return self._instance
                # BUG (when not safe): another thread may have created
                # the instance while we waited for the lock.
                self._creations += 1
                self._instance = object()
        return self._instance


def _build(safe: bool) -> InvivoProgram:
    def setup():
        registry = Registry(safe=safe)

        def client():
            registry.get_instance()
            assert registry._creations == 1, "singleton constructed twice"

        return {"client-1": client, "client-2": client}

    name = "invivo-lazy-singleton" + ("-fixed" if safe else "")
    expected = () if safe else ("double-checked locking without re-check",)
    return InvivoProgram(
        name, setup, expected_bugs=expected, patch=monkeypatch(__name__)
    )


def make_program() -> InvivoProgram:
    """The seeded-bug variant (no re-check under the lock)."""
    return _build(safe=False)


def make_fixed() -> InvivoProgram:
    """The corrected variant (proper double-checked locking)."""
    return _build(safe=True)
