"""``InvivoProgram``: real threading code as a checkable ``Program``.

An :class:`InvivoProgram` subclasses :class:`~repro.core.program.Program`
and overrides only ``instantiate()``, so everything downstream --
:class:`~repro.core.execution.Execution`'s fingerprint/enabled-set
interface, :class:`~repro.chess.checker.ChessChecker`, the ICB
strategies, witness traces, minimization, the result cache -- consumes
it unchanged.  Its setup function takes **no arguments** (real code
has no ``World``); it creates adapter objects and returns plain
callables as threads::

    def make_program():
        def setup():
            lock = invivo.Lock()
            hits = invivo.Shared(0)

            def worker():
                with lock:
                    hits.set(hits.get() + 1)

            return {"a": worker, "b": worker}

        return InvivoProgram("two-hits", setup)

:class:`monkeypatch` substitutes the adapter classes for
``threading.*`` inside target modules, so unmodified library code can
be checked without editing it (within the supported subset; see
``docs/invivo.md``).
"""

from __future__ import annotations

import importlib
import inspect
import threading as _threading
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.program import Program, SetupResult, ThreadSpec, _normalize_threads
from ..core.world import World
from ..errors import ProgramDefinitionError
from . import adapters
from .runner import (
    DEFAULT_HANDSHAKE_TIMEOUT,
    InvivoContext,
    InvivoError,
    activate,
    make_bridge,
)


class InvivoProgram(Program):
    """A program whose threads are plain callables using the adapters.

    Args:
        name: display name used in reports and traces.
        setup: zero-argument function creating the shared adapters and
            returning the threads (same shapes as the DSL: a mapping
            ``{label: callable}`` or ``(label, callable[, args])``
            tuples) -- re-run from scratch for every execution, which
            is what makes replays deterministic.
        expected_bugs: optional documentation of seeded defects.
        handshake_timeout: seconds the engine waits for a user thread
            to reach its next adapter operation.
        patch: an optional :class:`monkeypatch` applied (permanently)
            before the first execution, for code that does
            ``import threading`` directly.
    """

    #: Threads run on OS threads, which cannot be fast-forwarded, so
    #: every state is reached by replay.
    restorable = False

    def __init__(
        self,
        name: str,
        setup: Callable[[], SetupResult],
        expected_bugs: Tuple[str, ...] = (),
        handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
        patch: Optional["monkeypatch"] = None,
    ) -> None:
        super().__init__(name, setup, expected_bugs)
        self.handshake_timeout = handshake_timeout
        self.patch = patch
        #: Cumulative run statistics across every execution of this
        #: program object; surfaced through obs as the ``invivo_run``
        #: event and ``invivo_*`` counters.
        self.invivo_stats: Dict[str, int] = {
            "threads": 0,
            "handshakes": 0,
            "abandoned": 0,
        }

    def instantiate(self) -> Tuple[World, List[ThreadSpec]]:
        if self.patch is not None:
            self.patch.apply()
        world = World()
        ctx = InvivoContext(world, self)
        with activate(ctx):
            result = self.setup()
            if inspect.isgenerator(result):
                raise ProgramDefinitionError(
                    f"setup of {self.name!r} is a generator; an in-vivo "
                    "setup is a plain zero-argument function returning "
                    "the initial threads"
                )
            specs = _normalize_threads(result)
        return world, [
            (label, make_bridge(ctx, label, fn, args), ())
            for label, fn, args in specs
        ]


#: threading attributes the shim substitutes with adapters.
_SUBSTITUTES = (
    "Lock",
    "RLock",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "Condition",
)

#: threading attributes whose use would escape scheduler control.
_UNSUPPORTED = ("Thread", "Timer", "Barrier")


class _ThreadingShim(ModuleType):
    """Stands in for the ``threading`` module inside a patched module.

    Substituted primitives resolve to the invivo adapters; the
    unsupported ones raise immediately (an uncontrolled real thread
    would silently destroy determinism); everything else -- constants,
    ``current_thread``, ``local`` -- delegates to real ``threading``.
    """

    def __init__(self) -> None:
        super().__init__("threading", _threading.__doc__)
        for name in _SUBSTITUTES:
            setattr(self, name, getattr(adapters, name))

    def __getattr__(self, name: str) -> Any:
        if name in _UNSUPPORTED:
            raise InvivoError(
                f"threading.{name} is not supported under in-vivo "
                "checking; declare every thread in the program's setup() "
                "(see docs/invivo.md for the supported subset)"
            )
        return getattr(_threading, name)


class monkeypatch:
    """Substitute ``threading`` primitives inside target modules.

    Works as a context manager (``with monkeypatch(mod): ...``) or
    applied permanently (``monkeypatch(mod).apply()``, the usual form
    inside a ``make_program`` factory).  Two kinds of references are
    rewritten in each target module's namespace:

    * a module-level ``threading`` import becomes a shim whose
      primitive classes are the adapters;
    * names imported directly (``from threading import Lock``) are
      replaced when they still point at the real primitive.

    The adapter classes bind to the active execution context at
    *construction* time, so a permanently patched module keeps working
    across executions -- as long as it constructs its primitives inside
    ``setup()`` (or a checked thread), never at import time.
    """

    def __init__(self, *modules: Union[str, ModuleType]) -> None:
        if not modules:
            raise InvivoError("monkeypatch needs at least one target module")
        self.modules = [
            importlib.import_module(m) if isinstance(m, str) else m
            for m in modules
        ]
        self._saved = None

    def apply(self) -> "monkeypatch":
        if self._saved is not None:
            return self  # already applied; idempotent
        shim = _ThreadingShim()
        saved = []
        for module in self.modules:
            if getattr(module, "threading", None) is _threading:
                saved.append((module, "threading", _threading))
                module.threading = shim
            for attr in _SUBSTITUTES:
                if getattr(module, attr, None) is getattr(_threading, attr):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, getattr(adapters, attr))
        self._saved = saved
        return self

    def restore(self) -> None:
        if self._saved is None:
            return
        for module, attr, original in self._saved:
            setattr(module, attr, original)
        self._saved = None

    def __enter__(self) -> "monkeypatch":
        return self.apply()

    def __exit__(self, *exc: Any) -> bool:
        self.restore()
        return False
