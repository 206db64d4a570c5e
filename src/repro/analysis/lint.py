"""The in-vivo lint: plain state shared outside the adapters.

``repro lint --module pkg.mod:factory`` runs a bounded ICB search of
an in-vivo program (preemption bound :data:`LINT_BOUND`) with a
watcher :class:`~repro.monitors.Monitor` riding on every execution.
At the start of an execution and after each step, the watcher digests
the plain state reachable from the thread callables ``setup``
returned: their closure cells (and those of the functions they close
over), the objects bound methods are bound to, the defining modules'
globals, and the attributes of the plain objects and classes reachable
from those.  In-vivo runs one user thread per step, so the thread that
stepped wrote whatever changed.  Findings are *warnings about likely
mistakes*, not bug reports: the dynamic checkers stay the ground truth.

``hidden-state``
    A plain attribute, class attribute, module global or closure
    variable is written by more than one checked thread, over all the
    explored executions, without a ``Shared``/``Atomic`` wrapper --
    invisible to race detection and state fingerprints (see
    ``docs/invivo.md``).

Each finding carries a stable ``fingerprint`` so a committed baseline
file can distinguish known findings from regressions; ``repro lint``
exits nonzero only on non-baselined findings.
"""

from __future__ import annotations

import collections
import functools
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Set, Tuple, cast

from ..chess.checker import ChessChecker
from ..core.execution import Execution, ExecutionConfig, StepRecord
from ..core.objects import SharedObject
from ..core.program import Program, SetupResult, ThreadSpec, _normalize_threads
from ..invivo.adapters import _Adapter
from ..invivo.program import InvivoProgram
from ..monitors.monitor import Monitor

__all__ = [
    "LINT_BOUND",
    "LintFinding",
    "format_baseline",
    "lint_program",
    "load_baseline",
    "watch_program",
]

#: The preemption bound of the search the lint watches.  A write that
#: only a preempted interleaving reaches needs at least one preemption.
LINT_BOUND = 1

#: Values the watcher neither reads into nor charges: the adapters and
#: shared objects the checker already sees, and program objects, whose
#: run statistics the engine updates as it goes.
_SEEN_BY_THE_CHECKER = (_Adapter, SharedObject, Program)

#: Values compared by content.
_SCALARS = frozenset({type(None), bool, int, str, bytes})
#: Containers compared by content, read through the base type's own
#: iterator so that no user code runs inside the watcher.
_CONTAINERS = (list, tuple, set, frozenset, collections.deque)
#: A slot that does not exist.
_MISSING = object()

#: Slot values of one digest: ``id(owner) -> (owner, name, slots)``.
#: Holding the owner keeps its id from being reused while the digest
#: lives.
_Digest = Dict[int, Tuple[Any, str, Dict[str, Any]]]


class _Same:
    """A digest token equal only to a token of the very same object."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Same) and other.value is self.value

    def __hash__(self) -> int:
        return id(self.value)


class _Walk:
    """One digest of the plain state reachable from a thread set."""

    def __init__(self, specs: List[ThreadSpec]) -> None:
        self.owners: _Digest = {}
        #: ``(is_code, value)`` still to visit.  Code values (the thread
        #: callables, and what their closure cells hold) are read into:
        #: closures, bound receivers, globals.  A function met as data
        #: is compared by identity only.
        self._work: List[Tuple[bool, Any]] = []
        seen: Set[Tuple[bool, int]] = set()
        for _, fn, args in specs:
            self._work.append((True, fn))
            self._work.extend((False, arg) for arg in args)
        while self._work:
            is_code, value = self._work.pop()
            if (is_code, id(value)) in seen or isinstance(value, _SEEN_BY_THE_CHECKER):
                continue
            seen.add((is_code, id(value)))
            if is_code:
                self._visit_code(value)
            else:
                self._visit_data(value)

    def _visit_code(self, fn: Any) -> None:
        if isinstance(fn, types.MethodType):
            self._work += [(True, fn.__func__), (False, fn.__self__)]
        elif isinstance(fn, types.FunctionType):
            globals_ = fn.__globals__
            self._own(
                globals_,
                globals_.get("__name__") or "<exec>",
                globals_.items(),
            )
            for var, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
                try:
                    contents = [(var, cell.cell_contents)]
                except ValueError:  # not bound yet
                    contents = []
                self._own(cell, fn.__qualname__, contents, is_code=True)
        elif isinstance(fn, functools.partial):
            self._work.append((True, fn.func))
            self._work.extend((False, arg) for arg in fn.args)
            self._work.extend((False, arg) for arg in fn.keywords.values())
        else:  # plain data, or a callable object and the code it runs
            call = getattr(type(fn), "__call__", None)
            if isinstance(call, types.FunctionType):
                self._work.append((True, call))
            self._visit_data(fn)

    def _visit_data(self, value: Any) -> None:
        if isinstance(value, type):
            if value.__module__ != "builtins" and not issubclass(
                value, _SEEN_BY_THE_CHECKER
            ):
                self._own(value, value.__qualname__, vars(value).items())
            return
        if isinstance(
            value,
            (
                types.ModuleType,
                types.FunctionType,
                types.MethodType,
                types.BuiltinFunctionType,
            ),
        ):
            return
        try:
            attrs = object.__getattribute__(value, "__dict__")
        except AttributeError:
            return
        if isinstance(attrs, dict):
            self._own(value, type(value).__qualname__, attrs.items())
            self._work.append((False, type(value)))

    def _own(
        self,
        owner: Any,
        name: str,
        items: Iterable[Tuple[str, Any]],
        is_code: bool = False,
    ) -> None:
        if id(owner) in self.owners:
            return
        slots: Dict[str, Any] = {}
        for attr, value in list(items):
            if attr.startswith("__") and attr.endswith("__"):
                continue
            slots[attr] = self._token(value, set())
            if is_code:
                self._work.append((True, value))
        self.owners[id(owner)] = (owner, name, slots)

    def _token(self, value: Any, open_: Set[int]) -> Any:
        """What a slot holds: scalars and containers by content, and
        everything else by identity (queued: its own slots are walked)."""
        cls = type(value)
        if cls in _SCALARS:
            return (cls, value)
        if cls is float or cls is complex:
            return (cls, repr(value))
        if isinstance(value, _SEEN_BY_THE_CHECKER):
            return _Same(value)
        if isinstance(value, dict):
            items: Iterable[Any] = dict.items(value)
        else:
            base: Any = next((b for b in _CONTAINERS if isinstance(value, b)), None)
            if base is None:
                if isinstance(value, bytearray):
                    return (cls, bytes(value))
                self._work.append((False, value))
                return _Same(value)
            items = base.__iter__(value)
        if id(value) in open_:
            return _Same(value)
        open_.add(id(value))
        tokens = tuple(self._token(item, open_) for item in items)
        open_.discard(id(value))
        if isinstance(value, (set, frozenset)):
            return (cls, frozenset(tokens))
        return (cls, tokens)


class _Watcher(Monitor):
    """Charges every slot a step changes to the thread that stepped."""

    def __init__(
        self, specs: List[ThreadSpec], writers: Dict[str, Set[str]]
    ) -> None:
        self.specs = specs
        self.writers = writers
        self.digest = _Walk(specs).owners

    def on_step(self, execution: Execution, record: StepRecord) -> None:
        now = _Walk(self.specs).owners
        for key, (_, name, slots) in now.items():
            before = self.digest.get(key)
            if before is None:  # newly reachable: its publication is the write
                continue
            old = before[2]
            for attr in slots.keys() | old.keys():
                if slots.get(attr, _MISSING) != old.get(attr, _MISSING):
                    self.writers.setdefault(f"{name}.{attr}", set()).add(
                        record.tid.label
                    )
        self.digest = now


def watch_program(program: InvivoProgram) -> Dict[str, Set[str]]:
    """Search ``program`` to :data:`LINT_BOUND`; map each plain slot
    any step changed to the labels of the threads that changed it.

    Writes made by ``setup`` are charged to no thread: the watcher's
    first digest is taken after it.
    """
    latest: List[SetupResult] = []
    original = cast(Callable[[], SetupResult], program.setup)

    def setup() -> SetupResult:
        result = original()
        latest[:] = [result]
        return result

    watched = InvivoProgram(
        program.name,
        setup,
        handshake_timeout=program.handshake_timeout,
        patch=program.patch,
    )
    writers: Dict[str, Set[str]] = {}

    def watcher(execution: Execution) -> Monitor:
        return _Watcher(_normalize_threads(latest[0]), writers)

    config = ExecutionConfig(monitors=(watcher,))
    ChessChecker(watched, config).check(max_bound=LINT_BOUND)
    return writers


@dataclass(frozen=True)
class LintFinding:
    """One finding about a program's shared state."""

    program: str
    code: str
    subject: str
    message: str

    @property
    def fingerprint(self) -> str:
        """A stable identity for baselining: program/code/subject."""
        return f"{self.program}:{self.code}:{self.subject}"

    def describe(self) -> str:
        return f"[{self.code}] {self.message}"


def lint_program(program: InvivoProgram) -> Tuple[LintFinding, ...]:
    """All lint findings for one in-vivo program, sorted."""
    if not isinstance(program, InvivoProgram):
        raise TypeError(
            "the hidden-state lint reads in-vivo programs only; "
            f"{program!r} is not an InvivoProgram"
        )
    findings = [
        LintFinding(
            program=program.name,
            code="hidden-state",
            subject=key,
            message=(
                f"plain state {key!r} is written by threads "
                f"{', '.join(map(repr, sorted(labels)))} without a "
                "Shared/Atomic wrapper; the checker cannot see these "
                f"accesses (seen up to preemption bound {LINT_BOUND})"
            ),
        )
        for key, labels in watch_program(program).items()
        if len(labels) > 1
    ]
    return tuple(sorted(findings, key=lambda f: (f.code, f.subject)))


def load_baseline(text: str) -> Set[str]:
    """Parse a baseline file: one fingerprint per line, ``#`` comments."""
    out: Set[str] = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.add(line)
    return out


def format_baseline(findings: Iterable[LintFinding]) -> str:
    """Render findings as a baseline file body (sorted fingerprints)."""
    lines = sorted({f.fingerprint for f in findings})
    header = [
        "# repro lint baseline: known findings, one fingerprint per line.",
        "# Regenerate with: repro lint --module pkg.mod:factory "
        "--update-baseline <this file>",
    ]
    return "\n".join(header + lines) + "\n"
