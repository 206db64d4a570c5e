"""Static per-thread effect summaries over the effect DSL.

Thread bodies in this codebase are Python generator functions that
yield :class:`~repro.core.effects.Effect` descriptions built by calling
effect constructors on shared objects (``counter.read()``,
``lock.acquire()``, ...).  Because every interaction with shared state
must pass through a ``yield``, a static walk of the body's AST that
tracks which shared objects flow into those constructor calls sees a
superset of everything the thread can do at runtime.

This module implements that walk as a small abstract interpreter:

* **Values** live in a three-level lattice: ``Concrete(v)`` (exactly
  one runtime value, typically a shared object captured from the
  enclosing ``setup`` closure), ``AnyOf(v1, ..., vk)`` (one of a small
  known set, e.g. a loop variable over ``range(3)``), and ``UNKNOWN``
  (no information).
* **Effects** are recorded whenever a ``yield`` is interpreted.  A
  yield whose operand cannot be resolved to a known set of effect
  descriptions aborts the analysis of that thread with **TOP**: the
  summary that conservatively contains every possible behaviour.
* **Locksets** are tracked in both directions: ``must_held``
  (intersection at joins -- an under-approximation, used by the
  Eraser-style race candidates in :mod:`repro.analysis.racecand`) and
  ``may_held`` (union at joins -- an over-approximation, used for
  lock-order edges in :mod:`repro.analysis.lockgraph` and the lint
  findings in :mod:`repro.analysis.lint`).

Soundness contract (relied on by the lock graph, race candidates and
lint): for every
thread whose summary is not TOP, the dynamic accesses the thread
performs in *any* execution are contained in ``summary.accesses``, and
the ``must_locks`` attached to each access under-approximate the locks
actually held.  Anything the interpreter cannot prove it handles
exactly -- unsupported statements, unresolvable callees, direct
attribute reads of shared objects -- degrades to TOP rather than
guessing.  A per-thread safety net additionally converts *any*
analyzer exception into TOP, so a bug in the analysis itself can only
lose precision, never soundness.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import textwrap
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..core import effects as _effects_mod
from ..core import program as _program_mod
from ..core.effects import EffectKind
from ..core.heap import HeapField, HeapRef
from ..core.objects import SharedObject
from ..core.program import Program
from ..core.sync import (
    Barrier,
    CondVar,
    CriticalSection,
    Event,
    Mutex,
    RWLock,
    Semaphore,
)
from ..core.variables import AtomicVar, SharedVar

__all__ = [
    "StaticAccess",
    "ThreadSummary",
    "ProgramSummary",
    "analyze_program",
]

_WRITE_KINDS: FrozenSet[EffectKind] = frozenset(
    {
        EffectKind.WRITE,
        EffectKind.HEAP_WRITE,
        EffectKind.ATOMIC_WRITE,
        EffectKind.CAS,
        EffectKind.ATOMIC_ADD,
        EffectKind.EXCHANGE,
        EffectKind.FREE,
        EffectKind.SIGNAL,
        EffectKind.RESET,
    }
)

#: Categories whose accesses are *data* accesses (race candidates).
DATA_CATEGORIES: FrozenSet[str] = frozenset({"data", "field"})

#: Categories that participate in locksets and the lock-order graph.
LOCK_CATEGORIES: FrozenSet[str] = frozenset({"mutex", "critsec", "rwlock"})

_ANYOF_CAP = 16
_STEP_BUDGET = 50_000


# ---------------------------------------------------------------------------
# The value lattice.
# ---------------------------------------------------------------------------


class _Unknown:
    """Singleton bottom-of-information value."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UNKNOWN"


UNKNOWN = _Unknown()


@dataclass(frozen=True, eq=False)
class Concrete:
    """Exactly one possible runtime value."""

    value: Any

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Concrete):
            return NotImplemented
        return _same_runtime_value(self.value, other.value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Concrete({self.value!r})"


@dataclass(frozen=True, eq=False)
class AnyOf:
    """One of a small, known set of runtime values."""

    values: Tuple[Any, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnyOf):
            return NotImplemented
        if len(self.values) != len(other.values):
            return False
        return all(
            _same_runtime_value(a, b) for a, b in zip(self.values, other.values)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AnyOf({self.values!r})"


AbstractValue = Any  # Union[_Unknown, Concrete, AnyOf]


def _same_runtime_value(a: Any, b: Any) -> bool:
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    try:
        return bool(a == b)
    except Exception:
        return False


def _possible(value: AbstractValue) -> Optional[Tuple[Any, ...]]:
    """The tuple of possible runtime values, or ``None`` for UNKNOWN."""
    if isinstance(value, Concrete):
        return (value.value,)
    if isinstance(value, AnyOf):
        return value.values
    return None


def _value_of(candidates: Sequence[Any]) -> AbstractValue:
    out: List[Any] = []
    for v in candidates:
        if not any(_same_runtime_value(x, v) for x in out):
            out.append(v)
        if len(out) > _ANYOF_CAP:
            return UNKNOWN
    if not out:
        return UNKNOWN
    if len(out) == 1:
        return Concrete(out[0])
    return AnyOf(tuple(out))


def _join(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if isinstance(a, (Concrete, AnyOf)) and isinstance(b, (Concrete, AnyOf)):
        pa = _possible(a)
        pb = _possible(b)
        assert pa is not None and pb is not None
        return _value_of(list(pa) + list(pb))
    return UNKNOWN


def _truth(value: AbstractValue) -> Optional[bool]:
    poss = _possible(value)
    if poss is None:
        return None
    truths: Set[bool] = set()
    for v in poss:
        try:
            truths.add(bool(v))
        except Exception:
            return None
    if truths == {True}:
        return True
    if truths == {False}:
        return False
    return None


class _Top(Exception):
    """Raised to abandon a thread's analysis with a TOP summary."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Marker values produced while evaluating expressions.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _StaticFunc:
    """A function defined by a ``def`` statement inside a thread body."""

    name: str
    node: ast.FunctionDef
    snapshot: Dict[str, AbstractValue]
    outer: Callable[[str], AbstractValue]
    defaults: Tuple[AbstractValue, ...]
    is_generator: bool


@dataclass(eq=False)
class _EffectMethod:
    """A bound effect constructor, e.g. the value of ``counter.read``."""

    objects: Tuple[Any, ...]
    attr: str


@dataclass(eq=False)
class _GenCall:
    """A generator call awaiting ``yield from`` inlining."""

    fn: Any  # real generator function or _StaticFunc
    args: Tuple[AbstractValue, ...]
    kwargs: Dict[str, AbstractValue]


@dataclass(eq=False)
class _BarrierGen:
    """The generator returned by ``Barrier.wait()``."""

    barrier: Barrier


@dataclass(eq=False)
class _StaticEffect:
    """A statically resolved effect description (mirrors ``Effect``)."""

    kind: EffectKind
    targets: Tuple[Any, ...] = ()
    spawn_fn: AbstractValue = UNKNOWN
    spawn_args: Tuple[AbstractValue, ...] = ()
    spawn_name: Optional[str] = None


# Effect-constructor tables: (owning type, method name) -> EffectKind.
_EFFECT_METHODS: Dict[type, Dict[str, EffectKind]] = {
    SharedVar: {"read": EffectKind.READ, "write": EffectKind.WRITE},
    AtomicVar: {
        "read": EffectKind.ATOMIC_READ,
        "write": EffectKind.ATOMIC_WRITE,
        "cas": EffectKind.CAS,
        "add": EffectKind.ATOMIC_ADD,
        "exchange": EffectKind.EXCHANGE,
    },
    Mutex: {
        "acquire": EffectKind.ACQUIRE,
        "try_acquire": EffectKind.TRY_ACQUIRE,
        "release": EffectKind.RELEASE,
    },
    CriticalSection: {
        "enter": EffectKind.ACQUIRE,
        "try_enter": EffectKind.TRY_ACQUIRE,
        "leave": EffectKind.RELEASE,
    },
    Event: {
        "wait": EffectKind.WAIT,
        "set": EffectKind.SIGNAL,
        "reset": EffectKind.RESET,
    },
    Semaphore: {
        "acquire": EffectKind.SEM_ACQUIRE,
        "release": EffectKind.SEM_RELEASE,
    },
    CondVar: {
        "wait": EffectKind.CV_WAIT,
        "notify": EffectKind.CV_NOTIFY,
        "broadcast": EffectKind.CV_BROADCAST,
    },
    RWLock: {
        "acquire_read": EffectKind.RW_ACQUIRE_READ,
        "acquire_write": EffectKind.RW_ACQUIRE_WRITE,
        "release": EffectKind.RW_RELEASE,
    },
    HeapRef: {
        "read": EffectKind.HEAP_READ,
        "write": EffectKind.HEAP_WRITE,
        "free": EffectKind.FREE,
    },
}

_SAFE_BUILTINS: Dict[Any, str] = {
    fn: fn.__name__
    for fn in (
        range, len, min, max, abs, sorted, sum, divmod,
        tuple, list, set, dict, str, int, bool, float,
        ord, chr, zip, enumerate, reversed,
    )
}

_BINOPS: Dict[type, Callable[[Any, Any], Any]] = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a**b,
    ast.BitAnd: lambda a, b: a & b,
    ast.BitOr: lambda a, b: a | b,
    ast.BitXor: lambda a, b: a ^ b,
    ast.LShift: lambda a, b: a << b,
    ast.RShift: lambda a, b: a >> b,
}

_CMPOPS: Dict[type, Callable[[Any, Any], Any]] = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.In: lambda a, b: a in b,
    ast.NotIn: lambda a, b: a not in b,
    ast.Is: lambda a, b: a is b,
    ast.IsNot: lambda a, b: a is not b,
}

_UNARYOPS: Dict[type, Callable[[Any], Any]] = {
    ast.USub: lambda a: -a,
    ast.UAdd: lambda a: +a,
    ast.Not: lambda a: not a,
    ast.Invert: lambda a: ~a,
}


def _is_generator_node(node: ast.FunctionDef) -> bool:
    """Whether ``node``'s own scope contains a yield."""
    stack: List[ast.AST] = list(node.body)
    while stack:
        cur = stack.pop()
        if isinstance(cur, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(cur))
    return False


def _contains_yield(node: ast.AST) -> bool:
    for cur in ast.walk(node):
        if isinstance(cur, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _local_names(node: ast.FunctionDef) -> FrozenSet[str]:
    """Names bound in ``node``'s own scope (params, stores, defs)."""
    names: Set[str] = set()
    args = node.args
    for a in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        names.add(a.arg)
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    stack: List[ast.AST] = list(node.body)
    while stack:
        cur = stack.pop()
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(cur.name)
            continue
        if isinstance(cur, ast.Lambda):
            continue
        if isinstance(cur, ast.Name) and isinstance(cur.ctx, (ast.Store, ast.Del)):
            names.add(cur.id)
        stack.extend(ast.iter_child_nodes(cur))
    return frozenset(names)


# ---------------------------------------------------------------------------
# Abstract interpreter state.
# ---------------------------------------------------------------------------


class _AbsState:
    """Abstract state at one program point of one frame."""

    __slots__ = ("env", "may_held", "must_held", "alive")

    def __init__(
        self,
        env: Dict[str, AbstractValue],
        may_held: Set[str],
        must_held: Set[str],
        alive: bool = True,
    ) -> None:
        self.env = env
        self.may_held = may_held
        self.must_held = must_held
        self.alive = alive

    def copy(self) -> "_AbsState":
        return _AbsState(
            dict(self.env), set(self.may_held), set(self.must_held), self.alive
        )


def _merge_states(a: _AbsState, b: _AbsState) -> _AbsState:
    if not a.alive:
        return b
    if not b.alive:
        return a
    env: Dict[str, AbstractValue] = {}
    for name in set(a.env) | set(b.env):
        if name in a.env and name in b.env:
            env[name] = _join(a.env[name], b.env[name])
        else:
            env[name] = UNKNOWN
    return _AbsState(env, a.may_held | b.may_held, a.must_held & b.must_held, True)


def _merge_many(states: Sequence[_AbsState]) -> _AbsState:
    out = states[0]
    for s in states[1:]:
        out = _merge_states(out, s)
    return out


class _LoopCtx:
    __slots__ = ("breaks", "continues")

    def __init__(self) -> None:
        self.breaks: List[_AbsState] = []
        self.continues: List[_AbsState] = []


class _FrameCtx:
    __slots__ = ("resolver", "locals", "returns", "loops")

    def __init__(
        self, resolver: Callable[[str], AbstractValue], local_names: FrozenSet[str]
    ) -> None:
        self.resolver = resolver
        self.locals = local_names
        self.returns: List[Tuple[_AbsState, AbstractValue]] = []
        self.loops: List[_LoopCtx] = []


@dataclass(eq=False)
class _FnInfo:
    key: Any
    name: str
    node: ast.FunctionDef
    resolver: Callable[[str], AbstractValue]
    defaults: Tuple[AbstractValue, ...]
    kw_defaults: Dict[str, AbstractValue]


class _Collector:
    """Accumulates the facts one thread's interpretation produces."""

    def __init__(self) -> None:
        self.accesses: List[StaticAccess] = []
        self.lock_edges: Set[Tuple[str, str]] = set()
        self.double_acquires: List[str] = []
        self.spawns: List[Tuple[Any, Tuple[AbstractValue, ...], Optional[str]]] = []
        self.waited_events: Set[str] = set()
        self.signalled_events: Set[str] = set()


# ---------------------------------------------------------------------------
# Summary dataclasses.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticAccess:
    """One possible shared-object access of a thread.

    ``must_locks`` is the set of lock names *definitely* held when the
    access executes (an under-approximation, per the Eraser lockset
    discipline).
    """

    kind: EffectKind
    variable: str
    is_write: bool
    must_locks: FrozenSet[str]


@dataclass(frozen=True)
class ThreadSummary:
    """A sound over-approximation of one thread's shared accesses."""

    label: str
    top: bool = False
    top_reason: str = ""
    multi_instance: bool = False
    accesses: Tuple[StaticAccess, ...] = ()
    lock_edges: FrozenSet[Tuple[str, str]] = frozenset()
    exit_unreleased: FrozenSet[str] = frozenset()
    double_acquires: Tuple[str, ...] = ()
    waited_events: FrozenSet[str] = frozenset()
    signalled_events: FrozenSet[str] = frozenset()
    spawned_labels: Tuple[str, ...] = ()
    #: In-vivo only: plain attributes / module globals this thread
    #: writes without a Shared/Atomic wrapper (hidden-state lint).
    hidden_writes: FrozenSet[str] = frozenset()
    #: In-vivo only: attribute/global values the analysis folded
    #: (degraded to TOP when some checked thread writes them).
    resolved_attrs: FrozenSet[str] = frozenset()

    @classmethod
    def make_top(
        cls, label: str, reason: str, multi_instance: bool = False
    ) -> "ThreadSummary":
        return cls(
            label=label, top=True, top_reason=reason, multi_instance=multi_instance
        )

    @cached_property
    def access_pairs(self) -> FrozenSet[Tuple[str, str]]:
        """``(kind.value, variable)`` pairs this thread may perform."""
        return frozenset((a.kind.value, a.variable) for a in self.accesses)

    @cached_property
    def touched(self) -> FrozenSet[str]:
        """Names of every shared object this thread may access."""
        return frozenset(a.variable for a in self.accesses)

    @cached_property
    def written(self) -> FrozenSet[str]:
        return frozenset(a.variable for a in self.accesses if a.is_write)

    def covers(self, kind: EffectKind, variable: str) -> bool:
        """Whether a dynamic ``(kind, variable)`` access is explained."""
        if self.top:
            return True
        return (kind.value, variable) in self.access_pairs


@dataclass(frozen=True)
class ProgramSummary:
    """The static summaries of every thread a program can create."""

    program: str
    threads: Tuple[ThreadSummary, ...]
    #: shared-object name -> category ("data", "atomic", "mutex",
    #: "critsec", "event", "semaphore", "condvar", "rwlock", "heap",
    #: "field").
    variables: Mapping[str, str]
    #: event name -> initially-set flag (for the never-set-event lint).
    events_initially_set: Mapping[str, bool]

    @property
    def any_top(self) -> bool:
        return any(t.top for t in self.threads)

    def covers(self, kind: EffectKind, variable: str) -> bool:
        """Whether some thread summary explains the dynamic access."""
        return any(t.covers(kind, variable) for t in self.threads)

    def summary_for(self, label: str) -> Optional[ThreadSummary]:
        for t in self.threads:
            if t.label == label:
                return t
        return None


# ---------------------------------------------------------------------------
# The interpreter.
# ---------------------------------------------------------------------------


class _Interpreter:
    def __init__(self, collector: _Collector) -> None:
        self.collector = collector
        self._frames: List[_FrameCtx] = []
        self._active: List[Any] = []
        self._info_cache: Dict[Any, _FnInfo] = {}
        self._steps = 0

    # -- frame plumbing -----------------------------------------------

    @property
    def _frame(self) -> _FrameCtx:
        return self._frames[-1]

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > _STEP_BUDGET:
            raise _Top("analysis step budget exceeded")

    # -- function resolution ------------------------------------------

    def _info_for_function(self, fn: Any) -> _FnInfo:
        code = getattr(fn, "__code__", None)
        if code is None:
            raise _Top(f"cannot analyze non-Python callable {fn!r}")
        cached = self._info_cache.get(code)
        if cached is not None:
            return cached
        try:
            source = textwrap.dedent(inspect.getsource(fn))
        except (OSError, TypeError) as exc:
            raise _Top(f"no source for {getattr(fn, '__name__', fn)!r}: {exc}")
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:  # pragma: no cover - defensive
            raise _Top(f"unparseable source for {fn.__name__!r}: {exc}")
        node: Optional[ast.FunctionDef] = None
        for cur in ast.walk(tree):
            if isinstance(cur, ast.FunctionDef) and cur.name == fn.__name__:
                node = cur
                break
        if node is None:
            raise _Top(f"no function definition found for {fn.__name__!r}")

        closure: Dict[str, Any] = {}
        cells = fn.__closure__ or ()
        for name, cell in zip(code.co_freevars, cells):
            closure[name] = cell
        fn_globals = fn.__globals__

        def resolver(name: str) -> AbstractValue:
            if name in closure:
                try:
                    return Concrete(closure[name].cell_contents)
                except ValueError:
                    return UNKNOWN
            if name in fn_globals:
                return Concrete(fn_globals[name])
            if hasattr(builtins, name):
                return Concrete(getattr(builtins, name))
            return UNKNOWN

        defaults = tuple(Concrete(v) for v in (fn.__defaults__ or ()))
        kw_defaults = {
            k: Concrete(v) for k, v in (fn.__kwdefaults__ or {}).items()
        }
        info = _FnInfo(code, fn.__name__, node, resolver, defaults, kw_defaults)
        self._info_cache[code] = info
        return info

    def _info_for_static(self, sf: _StaticFunc) -> _FnInfo:
        snapshot = sf.snapshot
        outer = sf.outer

        def resolver(name: str) -> AbstractValue:
            if name in snapshot:
                return snapshot[name]
            return outer(name)

        kw_defaults: Dict[str, AbstractValue] = {}
        node_args = sf.node.args
        for a, dflt in zip(node_args.kwonlyargs, node_args.kw_defaults):
            if dflt is not None:
                kw_defaults[a.arg] = UNKNOWN
        return _FnInfo(sf.node, sf.name, sf.node, resolver, sf.defaults, kw_defaults)

    # -- calling ------------------------------------------------------

    def _bind_params(
        self,
        info: _FnInfo,
        pos: Sequence[AbstractValue],
        kw: Mapping[str, AbstractValue],
    ) -> Dict[str, AbstractValue]:
        args = info.node.args
        names = [a.arg for a in list(args.posonlyargs) + list(args.args)]
        env: Dict[str, AbstractValue] = {}
        pos = list(pos)
        for i, name in enumerate(names):
            if i < len(pos):
                env[name] = pos[i]
            elif name in kw:
                env[name] = kw[name]
            else:
                # Align defaults with the tail of the parameter list.
                dflt_index = i - (len(names) - len(info.defaults))
                if 0 <= dflt_index < len(info.defaults):
                    env[name] = info.defaults[dflt_index]
                else:
                    env[name] = UNKNOWN
        if args.vararg is not None:
            rest = pos[len(names):]
            parts = [_possible(v) for v in rest]
            if all(p is not None and len(p) == 1 for p in parts):
                env[args.vararg.arg] = Concrete(
                    tuple(p[0] for p in parts if p is not None)
                )
            else:
                env[args.vararg.arg] = UNKNOWN
        for a in args.kwonlyargs:
            if a.arg in kw:
                env[a.arg] = kw[a.arg]
            else:
                env[a.arg] = info.kw_defaults.get(a.arg, UNKNOWN)
        if args.kwarg is not None:
            env[args.kwarg.arg] = UNKNOWN
        return env

    def _run_callable(
        self,
        fn: Any,
        pos: Sequence[AbstractValue],
        kw: Mapping[str, AbstractValue],
        state: _AbsState,
    ) -> Tuple[_AbsState, AbstractValue]:
        """Interpret a call, threading lock state through the callee.

        Returns the caller's state after the call and the abstract
        return value.  The caller's local environment is untouched.
        """
        if inspect.ismethod(fn):
            pos = [Concrete(fn.__self__)] + list(pos)
            fn = fn.__func__
        if isinstance(fn, _StaticFunc):
            info = self._info_for_static(fn)
        else:
            info = self._info_for_function(fn)
        if any(k is info.key for k in self._active):
            raise _Top(f"recursive call of {info.name!r}")
        env = self._bind_params(info, pos, kw)
        callee = _AbsState(env, set(state.may_held), set(state.must_held), True)
        self._active.append(info.key)
        self._frames.append(_FrameCtx(info.resolver, _local_names(info.node)))
        try:
            out = self._exec_block(info.node.body, callee)
            exits: List[Tuple[_AbsState, AbstractValue]] = list(self._frame.returns)
            if out.alive:
                exits.append((out, Concrete(None)))
        finally:
            self._frames.pop()
            self._active.pop()
        after = state.copy()
        if not exits:
            after.alive = False
            return after, UNKNOWN
        merged = _merge_many([s for s, _ in exits])
        ret = exits[0][1]
        for _, r in exits[1:]:
            ret = _join(ret, r)
        after.may_held = merged.may_held
        after.must_held = merged.must_held
        return after, ret

    # -- statements ---------------------------------------------------

    def _exec_block(self, stmts: Sequence[ast.stmt], state: _AbsState) -> _AbsState:
        for stmt in stmts:
            if not state.alive:
                break
            state = self._exec_stmt(stmt, state)
        return state

    def _exec_stmt(self, stmt: ast.stmt, state: _AbsState) -> _AbsState:
        self._tick()
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, state)
            return state
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, state)
            for target in stmt.targets:
                self._assign_target(target, value, state)
            return state
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self._eval(stmt.value, state)
                self._assign_target(stmt.target, value, state)
            return state
        if isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value, state)
            if isinstance(stmt.target, ast.Name):
                current = self._load_name(stmt.target.id, state)
                state.env[stmt.target.id] = self._apply_binop(
                    type(stmt.op), current, value
                )
            else:
                self._invalidate_root(stmt.target, state)
            return state
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt, state)
        if isinstance(stmt, ast.While):
            return self._exec_while(stmt, state)
        if isinstance(stmt, ast.For):
            return self._exec_for(stmt, state)
        if isinstance(stmt, ast.Return):
            value = (
                Concrete(None)
                if stmt.value is None
                else self._eval(stmt.value, state)
            )
            self._frame.returns.append((state.copy(), value))
            state.alive = False
            return state
        if isinstance(stmt, ast.Break):
            if not self._frame.loops:
                raise _Top("break outside loop")
            self._frame.loops[-1].breaks.append(state.copy())
            state.alive = False
            return state
        if isinstance(stmt, ast.Continue):
            if not self._frame.loops:
                raise _Top("continue outside loop")
            self._frame.loops[-1].continues.append(state.copy())
            state.alive = False
            return state
        if isinstance(stmt, ast.Pass):
            return state
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None and _contains_yield(stmt.exc):
                raise _Top("yield inside raise operand")
            state.alive = False
            return state
        if isinstance(stmt, ast.Assert):
            self._eval(stmt.test, state)
            return state
        if isinstance(stmt, ast.FunctionDef):
            self._exec_functiondef(stmt, state)
            return state
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                state.env[bound] = UNKNOWN
            return state
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            raise _Top("global/nonlocal rebinding is not analyzable")
        raise _Top(f"unsupported statement {type(stmt).__name__}")

    def _exec_functiondef(self, stmt: ast.FunctionDef, state: _AbsState) -> None:
        if stmt.decorator_list:
            raise _Top(f"decorated nested function {stmt.name!r}")
        defaults = tuple(self._eval(d, state) for d in stmt.args.defaults)
        sf = _StaticFunc(
            name=stmt.name,
            node=stmt,
            snapshot=dict(state.env),
            outer=self._frame.resolver,
            defaults=defaults,
            is_generator=_is_generator_node(stmt),
        )
        state.env[stmt.name] = Concrete(sf)

    def _exec_if(self, stmt: ast.If, state: _AbsState) -> _AbsState:
        cond = self._eval(stmt.test, state)
        truth = _truth(cond)
        if truth is True:
            return self._exec_block(stmt.body, state)
        if truth is False:
            return self._exec_block(stmt.orelse, state)
        then_state = self._exec_block(stmt.body, state.copy())
        else_state = self._exec_block(stmt.orelse, state.copy())
        return _merge_states(then_state, else_state)

    def _exec_loop_body(
        self,
        body: Sequence[ast.stmt],
        state: _AbsState,
        loop: _LoopCtx,
        bind: Optional[Callable[[_AbsState], None]],
    ) -> _AbsState:
        if bind is not None:
            bind(state)
        out = self._exec_block(body, state)
        # A `continue` rejoins the loop back-edge.
        if loop.continues:
            out = _merge_many([out] + loop.continues)
            loop.continues = []
        return out

    def _run_loop(
        self,
        body: Sequence[ast.stmt],
        orelse: Sequence[ast.stmt],
        state: _AbsState,
        bind: Optional[Callable[[_AbsState], None]],
        may_skip: bool,
    ) -> _AbsState:
        """Abstractly execute a loop: two body passes to a fixpoint-ish
        merge, plus the zero-iteration path when ``may_skip``."""
        loop = _LoopCtx()
        self._frame.loops.append(loop)
        try:
            s1 = self._exec_loop_body(body, state.copy(), loop, bind)
            merged = _merge_states(state.copy(), s1) if may_skip else s1
            s2 = self._exec_loop_body(body, merged.copy(), loop, bind)
            exit_state = _merge_states(merged, s2)
            if loop.breaks:
                exit_state = _merge_many([exit_state] + loop.breaks)
        finally:
            self._frame.loops.pop()
        if orelse and exit_state.alive:
            exit_state = self._exec_block(orelse, exit_state)
        return exit_state

    def _exec_while(self, stmt: ast.While, state: _AbsState) -> _AbsState:
        cond = self._eval(stmt.test, state)
        truth = _truth(cond)
        if truth is False:
            return self._exec_block(stmt.orelse, state) if stmt.orelse else state
        if _contains_yield(stmt.test):
            raise _Top("yield inside loop condition")
        # The condition is effect-free (guarded above), so re-evaluating
        # it per iteration cannot record anything new; skip the binder.
        return self._run_loop(
            stmt.body, stmt.orelse, state, None, may_skip=truth is not True
        )

    def _exec_for(self, stmt: ast.For, state: _AbsState) -> _AbsState:
        iterable = self._eval(stmt.iter, state)
        element = self._element_of(iterable)
        may_skip = True
        poss = _possible(iterable)
        if poss is not None and len(poss) == 1:
            try:
                if len(list(poss[0])) > 0:
                    may_skip = False
            except Exception:
                may_skip = True

        def bind(s: _AbsState) -> None:
            self._assign_target(stmt.target, element, s)

        return self._run_loop(stmt.body, stmt.orelse, state, bind, may_skip)

    def _element_of(self, iterable: AbstractValue) -> AbstractValue:
        poss = _possible(iterable)
        if poss is None:
            return UNKNOWN
        elements: List[Any] = []
        for container in poss:
            if isinstance(container, (_StaticEffect, _GenCall, _BarrierGen)):
                raise _Top("iteration over an effect value")
            try:
                items = list(container)
            except Exception:
                return UNKNOWN
            if len(items) > 64:
                return UNKNOWN
            elements.extend(items)
        return _value_of(elements) if elements else UNKNOWN

    # -- assignment ---------------------------------------------------

    def _assign_target(
        self, target: ast.expr, value: AbstractValue, state: _AbsState
    ) -> None:
        if isinstance(target, ast.Name):
            state.env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            names = target.elts
            poss = _possible(value)
            unpacked: Optional[List[AbstractValue]] = None
            if poss is not None and not any(
                isinstance(e, ast.Starred) for e in names
            ):
                rows: List[Tuple[Any, ...]] = []
                ok = True
                for v in poss:
                    try:
                        row = tuple(v)
                    except Exception:
                        ok = False
                        break
                    if len(row) != len(names):
                        ok = False
                        break
                    rows.append(row)
                if ok and rows:
                    unpacked = [
                        _value_of([row[i] for row in rows])
                        for i in range(len(names))
                    ]
            for i, sub in enumerate(names):
                sub_value = unpacked[i] if unpacked is not None else UNKNOWN
                if isinstance(sub, ast.Starred):
                    self._assign_target(sub.value, UNKNOWN, state)
                else:
                    self._assign_target(sub, sub_value, state)
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            self._invalidate_root(target, state)
            return
        raise _Top(f"unsupported assignment target {type(target).__name__}")

    def _invalidate_root(self, node: ast.expr, state: _AbsState) -> None:
        cur: ast.expr = node
        while isinstance(cur, (ast.Subscript, ast.Attribute)):
            cur = cur.value
        if isinstance(cur, ast.Name):
            state.env[cur.id] = UNKNOWN
        # A non-name root is a temporary: no environment binding can go
        # stale, so there is nothing to invalidate.

    # -- expressions --------------------------------------------------

    def _load_name(self, name: str, state: _AbsState) -> AbstractValue:
        if name in state.env:
            return state.env[name]
        if name in self._frame.locals:
            return UNKNOWN
        return self._frame.resolver(name)

    def _apply_binop(
        self, op: type, left: AbstractValue, right: AbstractValue
    ) -> AbstractValue:
        fn = _BINOPS.get(op)
        if fn is None:
            return UNKNOWN
        pl = _possible(left)
        pr = _possible(right)
        if pl is None or pr is None or len(pl) * len(pr) > 64:
            return UNKNOWN
        results: List[Any] = []
        for a in pl:
            for b in pr:
                try:
                    results.append(fn(a, b))
                except Exception:
                    return UNKNOWN
        return _value_of(results)

    def _eval(self, node: ast.expr, state: _AbsState) -> AbstractValue:
        self._tick()
        if isinstance(node, ast.Constant):
            return Concrete(node.value)
        if isinstance(node, ast.Name):
            return self._load_name(node.id, state)
        if isinstance(node, ast.Yield):
            operand = (
                Concrete(None)
                if node.value is None
                else self._eval(node.value, state)
            )
            return self._record_yield(operand, state)
        if isinstance(node, ast.YieldFrom):
            return self._eval_yield_from(node, state)
        if isinstance(node, ast.Call):
            return self._eval_call(node, state)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, state)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, state)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, state)
            right = self._eval(node.right, state)
            return self._apply_binop(type(node.op), left, right)
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, state)
            fn = _UNARYOPS.get(type(node.op))
            poss = _possible(operand)
            if fn is None or poss is None:
                return UNKNOWN
            try:
                return _value_of([fn(v) for v in poss])
            except Exception:
                return UNKNOWN
        if isinstance(node, ast.Compare):
            return self._eval_compare(node, state)
        if isinstance(node, ast.BoolOp):
            values = [self._eval(v, state) for v in node.values]
            truths = [_truth(v) for v in values]
            if isinstance(node.op, ast.And):
                if any(t is False for t in truths):
                    return Concrete(False)
                if all(t is True for t in truths):
                    return values[-1]
                return UNKNOWN
            if any(t is True for t in truths):
                return Concrete(True)
            if all(t is False for t in truths):
                return values[-1]
            return UNKNOWN
        if isinstance(node, ast.IfExp):
            cond = self._eval(node.test, state)
            truth = _truth(cond)
            if truth is True:
                return self._eval(node.body, state)
            if truth is False:
                return self._eval(node.orelse, state)
            return _join(
                self._eval(node.body, state), self._eval(node.orelse, state)
            )
        if isinstance(node, (ast.Tuple, ast.List)):
            parts = []
            for elt in node.elts:
                if isinstance(elt, ast.Starred):
                    inner = self._eval(elt.value, state)
                    ip = _possible(inner)
                    if ip is None or len(ip) != 1:
                        return UNKNOWN
                    try:
                        parts.extend(Concrete(v) for v in list(ip[0]))
                    except Exception:
                        return UNKNOWN
                else:
                    parts.append(self._eval(elt, state))
            combos = [_possible(p) for p in parts]
            if any(c is None or len(c) != 1 for c in combos):
                return UNKNOWN
            values = tuple(c[0] for c in combos if c is not None)
            return Concrete(list(values) if isinstance(node, ast.List) else values)
        if isinstance(node, ast.Dict):
            out: Dict[Any, Any] = {}
            for k, v in zip(node.keys, node.values):
                if k is None:
                    return UNKNOWN
                kv = _possible(self._eval(k, state))
                vv = _possible(self._eval(v, state))
                if kv is None or vv is None or len(kv) != 1 or len(vv) != 1:
                    return UNKNOWN
                try:
                    out[kv[0]] = vv[0]
                except Exception:
                    return UNKNOWN
            return Concrete(out)
        if isinstance(node, ast.JoinedStr):
            parts_s: List[str] = []
            for piece in node.values:
                if isinstance(piece, ast.FormattedValue):
                    v = _possible(self._eval(piece.value, state))
                    if v is None or len(v) != 1:
                        return UNKNOWN
                    try:
                        parts_s.append(format(v[0], ""))
                    except Exception:
                        return UNKNOWN
                elif isinstance(piece, ast.Constant):
                    parts_s.append(str(piece.value))
                else:
                    return UNKNOWN
            return Concrete("".join(parts_s))
        if isinstance(node, ast.Lambda):
            raise _Top("lambda in thread body")
        # Anything else (comprehensions, generators, walrus, await...):
        # sound only if no effect can hide inside.
        if _contains_yield(node):
            raise _Top(f"yield inside unsupported {type(node).__name__}")
        return UNKNOWN

    def _eval_compare(self, node: ast.Compare, state: _AbsState) -> AbstractValue:
        left = self._eval(node.left, state)
        result: AbstractValue = Concrete(True)
        for op, comparator in zip(node.ops, node.comparators):
            right = self._eval(comparator, state)
            fn = _CMPOPS.get(type(op))
            pl = _possible(left)
            pr = _possible(right)
            if fn is None or pl is None or pr is None or len(pl) * len(pr) > 64:
                part: AbstractValue = UNKNOWN
            else:
                outcomes: List[Any] = []
                failed = False
                for a in pl:
                    for b in pr:
                        try:
                            outcomes.append(bool(fn(a, b)))
                        except Exception:
                            failed = True
                            break
                    if failed:
                        break
                part = UNKNOWN if failed else _value_of(outcomes)
            # Chain: result AND part.
            rt = _truth(result)
            pt = _truth(part)
            if rt is False or pt is False:
                result = Concrete(False)
            elif rt is True and pt is True:
                result = Concrete(True)
            else:
                result = UNKNOWN
            left = right
        return result

    def _eval_attribute(self, node: ast.Attribute, state: _AbsState) -> AbstractValue:
        obj = self._eval(node.value, state)
        poss = _possible(obj)
        if poss is None:
            # The receiver was evaluated (yields recorded); reading an
            # attribute performs no effect itself.
            return UNKNOWN
        shared = [
            o for o in poss if isinstance(o, (SharedObject, Barrier))
        ]
        if shared and len(shared) != len(poss):
            raise _Top(f"attribute {node.attr!r} on mixed shared/plain values")
        if shared:
            for o in shared:
                if isinstance(o, Barrier):
                    if node.attr == "parties":
                        continue
                    if node.attr != "wait":
                        raise _Top(f"attribute {node.attr!r} on barrier")
                elif isinstance(o, HeapField):
                    raise _Top("direct operation on a heap field")
                else:
                    table = _EFFECT_METHODS.get(type(o))
                    if table is None or node.attr not in table:
                        raise _Top(
                            f"attribute {node.attr!r} on shared object "
                            f"{o.name!r} is not an effect constructor"
                        )
            if node.attr == "parties":
                return _value_of([o.parties for o in shared])
            return Concrete(_EffectMethod(tuple(shared), node.attr))
        results: List[Any] = []
        for o in poss:
            if isinstance(o, (_StaticFunc, _EffectMethod, _GenCall, _BarrierGen)):
                raise _Top(f"attribute {node.attr!r} on analysis value")
            try:
                results.append(getattr(o, node.attr))
            except Exception:
                return UNKNOWN
        return _value_of(results)

    def _eval_subscript(self, node: ast.Subscript, state: _AbsState) -> AbstractValue:
        container = self._eval(node.value, state)
        index = self._eval(node.slice, state)
        pc = _possible(container)
        if pc is None:
            # Container and index were evaluated (yields recorded).
            return UNKNOWN
        pi = _possible(index)
        results: List[Any] = []
        for c in pc:
            if isinstance(c, (_StaticEffect, _GenCall, _BarrierGen)):
                raise _Top("subscript of an effect value")
            if pi is None:
                # Unknown index: all elements are possible (sound for
                # sequences and dicts of bounded size).
                try:
                    if isinstance(c, dict):
                        items = list(c.values())
                    else:
                        items = list(c)
                except Exception:
                    return UNKNOWN
                if len(items) > 64 or not items:
                    return UNKNOWN
                results.extend(items)
            else:
                for i in pi:
                    try:
                        results.append(c[i])
                    except Exception:
                        return UNKNOWN
        return _value_of(results)

    # -- calls --------------------------------------------------------

    def _eval_call(self, node: ast.Call, state: _AbsState) -> AbstractValue:
        func = self._eval(node.func, state)
        pos: List[AbstractValue] = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                inner = self._eval(arg.value, state)
                ip = _possible(inner)
                if ip is not None and len(ip) == 1:
                    try:
                        pos.extend(Concrete(v) for v in list(ip[0]))
                        continue
                    except Exception:
                        pass
                raise _Top("unresolvable *args in call")
            pos.append(self._eval(arg, state))
        kw: Dict[str, AbstractValue] = {}
        for keyword in node.keywords:
            if keyword.arg is None:
                raise _Top("**kwargs in call")
            kw[keyword.arg] = self._eval(keyword.value, state)

        pf = _possible(func)
        if pf is None or len(pf) != 1:
            # Every sub-expression (callee, args, kwargs) has been
            # evaluated above, so any yields inside are already
            # recorded; an unresolved plain call cannot emit effects
            # by itself, making UNKNOWN sound here.
            if isinstance(node.func, ast.Attribute):
                self._invalidate_root(node.func, state)
            return UNKNOWN
        callee = pf[0]

        if isinstance(callee, _EffectMethod):
            return Concrete(self._make_effect(callee, pos, kw))
        if callee is _effects_mod.spawn:
            if not pos:
                raise _Top("spawn() with no function argument")
            name_v = kw.get("name")
            name: Optional[str] = None
            if name_v is not None:
                np = _possible(name_v)
                if np is not None and len(np) == 1 and isinstance(np[0], str):
                    name = np[0]
            return Concrete(
                _StaticEffect(
                    EffectKind.SPAWN,
                    spawn_fn=pos[0],
                    spawn_args=tuple(pos[1:]),
                    spawn_name=name,
                )
            )
        if callee is _effects_mod.join:
            return Concrete(_StaticEffect(EffectKind.JOIN))
        if callee is _effects_mod.sched_yield:
            return Concrete(_StaticEffect(EffectKind.YIELD))
        if callee is _effects_mod.alloc:
            return Concrete(_StaticEffect(EffectKind.ALLOC))
        if callee is _program_mod.check:
            return Concrete(None)
        if callee in _SAFE_BUILTINS:
            arg_poss = [_possible(a) for a in pos]
            kw_poss = {k: _possible(v) for k, v in kw.items()}
            if all(p is not None and len(p) == 1 for p in arg_poss) and all(
                p is not None and len(p) == 1 for p in kw_poss.values()
            ):
                concrete_args = [p[0] for p in arg_poss if p is not None]
                concrete_kw = {
                    k: p[0] for k, p in kw_poss.items() if p is not None
                }
                try:
                    result = callee(*concrete_args, **concrete_kw)
                    if callee in (zip, enumerate, reversed):
                        result = tuple(result)
                    return Concrete(result)
                except Exception:
                    return UNKNOWN
            return UNKNOWN
        if isinstance(callee, _StaticFunc):
            self._check_snapshot(callee, state)
            if callee.is_generator:
                return Concrete(_GenCall(callee, tuple(pos), kw))
            new_state, ret = self._run_callable(callee, pos, kw, state)
            state.may_held = new_state.may_held
            state.must_held = new_state.must_held
            state.alive = new_state.alive
            return ret
        if inspect.isgeneratorfunction(callee):
            return Concrete(_GenCall(callee, tuple(pos), kw))
        if isinstance(callee, Barrier):
            raise _Top("barrier object called directly")
        # Any other call: plain Python code.  It cannot emit effects
        # (effects only happen at a yield), so UNKNOWN is sound -- but a
        # method call may mutate a tracked container, so invalidate the
        # receiver.
        if isinstance(node.func, ast.Attribute):
            self._invalidate_root(node.func, state)
        return UNKNOWN

    def _check_snapshot(self, sf: _StaticFunc, state: _AbsState) -> None:
        """Reject def-to-call rebinding of a closed-over local."""
        for name, captured in sf.snapshot.items():
            current = state.env.get(name)
            if current is None:
                continue
            if not _same_abstract(captured, current):
                raise _Top(
                    f"local {name!r} rebound between definition and call "
                    f"of {sf.name!r}"
                )

    def _make_effect(
        self,
        method: _EffectMethod,
        pos: Sequence[AbstractValue],
        kw: Mapping[str, AbstractValue],
    ) -> Any:
        objs = method.objects
        if any(isinstance(o, Barrier) for o in objs):
            if len(objs) != 1:
                raise _Top("barrier wait with ambiguous receiver")
            return _BarrierGen(objs[0])
        if kw:
            raise _Top("keyword arguments to an effect constructor")
        kinds: Set[EffectKind] = set()
        targets: List[Any] = []
        for o in objs:
            table = _EFFECT_METHODS[type(o)]
            kinds.add(table[method.attr])
        if len(kinds) != 1:
            raise _Top(f"ambiguous effect kind for method {method.attr!r}")
        kind = kinds.pop()
        if kind in (EffectKind.HEAP_READ, EffectKind.HEAP_WRITE):
            if not pos:
                raise _Top("heap access without a field name")
            fields = _possible(pos[0])
            if fields is None:
                # Unknown field: every field of the object is possible.
                for o in objs:
                    targets.extend(o.fields.values())
            else:
                for o in objs:
                    for f in fields:
                        hf = o.fields.get(f)
                        if hf is None:
                            raise _Top(
                                f"unknown field {f!r} of heap object {o.name!r}"
                            )
                        targets.append(hf)
            return _StaticEffect(kind, tuple(targets))
        return _StaticEffect(kind, tuple(objs))

    # -- yields (effect recording) ------------------------------------

    def _record_yield(self, operand: AbstractValue, state: _AbsState) -> AbstractValue:
        poss = _possible(operand)
        if poss is None:
            raise _Top("yield of an unresolved effect")
        effects: List[_StaticEffect] = []
        for p in poss:
            if isinstance(p, _StaticEffect):
                effects.append(p)
            elif isinstance(p, (_GenCall, _BarrierGen)):
                raise _Top("generator yielded directly (use `yield from`)")
            else:
                raise _Top(f"yield of a non-effect value {p!r}")
        if len(effects) == 1:
            self._apply_effect(effects[0], state)
        else:
            branches: List[_AbsState] = []
            for eff in effects:
                s = state.copy()
                self._apply_effect(eff, s)
                branches.append(s)
            merged = _merge_many(branches)
            state.may_held = merged.may_held
            state.must_held = merged.must_held
        return UNKNOWN

    def _eval_yield_from(self, node: ast.YieldFrom, state: _AbsState) -> AbstractValue:
        operand = self._eval(node.value, state)
        poss = _possible(operand)
        if poss is None or len(poss) != 1:
            raise _Top("yield from an unresolved generator")
        gen = poss[0]
        if isinstance(gen, _BarrierGen):
            barrier = gen.barrier
            count_eff = _StaticEffect(EffectKind.ATOMIC_ADD, (barrier._count,))
            rel_eff = _StaticEffect(EffectKind.SEM_RELEASE, (barrier._sem,))
            acq_eff = _StaticEffect(EffectKind.SEM_ACQUIRE, (barrier._sem,))
            self._apply_effect(count_eff, state)
            self._apply_effect(rel_eff, state)
            self._apply_effect(acq_eff, state)
            return Concrete(None)
        if isinstance(gen, _GenCall):
            new_state, ret = self._run_callable(gen.fn, gen.args, gen.kwargs, state)
            state.may_held = new_state.may_held
            state.must_held = new_state.must_held
            state.alive = new_state.alive
            return ret
        raise _Top(f"yield from a non-generator value {gen!r}")

    # -- effect application -------------------------------------------

    def _record_access(
        self, kind: EffectKind, target: Any, state: _AbsState
    ) -> None:
        name = getattr(target, "name", None)
        if name is None:
            return
        self.collector.accesses.append(
            StaticAccess(
                kind=kind,
                variable=name,
                is_write=kind in _WRITE_KINDS,
                must_locks=frozenset(state.must_held),
            )
        )

    def _apply_effect(self, eff: _StaticEffect, state: _AbsState) -> None:
        kind = eff.kind
        if kind is EffectKind.SPAWN:
            self._register_spawn(eff)
            return
        if kind in (EffectKind.JOIN, EffectKind.YIELD, EffectKind.ALLOC):
            return
        targets = eff.targets
        single = len(targets) == 1
        for target in targets:
            self._record_access(kind, target, state)
        if kind is EffectKind.ACQUIRE or kind is EffectKind.RW_ACQUIRE_WRITE:
            for target in targets:
                for held in state.may_held:
                    if held != target.name:
                        self.collector.lock_edges.add((held, target.name))
                reentrant = isinstance(target, CriticalSection)
                if (
                    single
                    and not reentrant
                    and kind is EffectKind.ACQUIRE
                    and target.name in state.must_held
                ):
                    self.collector.double_acquires.append(target.name)
                state.may_held.add(target.name)
            if single:
                state.must_held.add(targets[0].name)
            return
        if kind is EffectKind.RW_ACQUIRE_READ:
            for target in targets:
                for held in state.may_held:
                    if held != target.name:
                        self.collector.lock_edges.add((held, target.name))
                state.may_held.add(target.name)
            return
        if kind is EffectKind.TRY_ACQUIRE:
            for target in targets:
                state.may_held.add(target.name)
            return
        if kind is EffectKind.RELEASE or kind is EffectKind.RW_RELEASE:
            for target in targets:
                state.must_held.discard(target.name)
                if single:
                    state.may_held.discard(target.name)
            return
        if kind is EffectKind.WAIT:
            for target in targets:
                self.collector.waited_events.add(target.name)
            return
        if kind is EffectKind.SIGNAL:
            for target in targets:
                self.collector.signalled_events.add(target.name)
            return
        # RESET, SEM_*, CV_*, data/atomic/heap accesses, FREE: the
        # access record above is all we track.
        return

    def _register_spawn(self, eff: _StaticEffect) -> None:
        fns = _possible(eff.spawn_fn)
        if fns is None:
            raise _Top("spawn of an unresolved function")
        for fn in fns:
            if isinstance(fn, _StaticFunc):
                if not fn.is_generator:
                    raise _Top(f"spawn of non-generator {fn.name!r}")
            elif not inspect.isgeneratorfunction(fn):
                raise _Top(f"spawn of non-generator {fn!r}")
            self.collector.spawns.append((fn, eff.spawn_args, eff.spawn_name))


def _same_abstract(a: AbstractValue, b: AbstractValue) -> bool:
    if a is b:
        return True
    if isinstance(a, Concrete) and isinstance(b, Concrete):
        return _same_runtime_value(a.value, b.value)
    if isinstance(a, AnyOf) and isinstance(b, AnyOf):
        return a == b
    return False


# ---------------------------------------------------------------------------
# Program-level analysis.
# ---------------------------------------------------------------------------


def _category(obj: Any) -> str:
    if isinstance(obj, AtomicVar):
        return "atomic"
    if isinstance(obj, SharedVar):
        return "data"
    if isinstance(obj, HeapField):
        return "field"
    if isinstance(obj, HeapRef):
        return "heap"
    if isinstance(obj, Mutex):
        return "mutex"
    if isinstance(obj, CriticalSection):
        return "critsec"
    if isinstance(obj, Event):
        return "event"
    if isinstance(obj, Semaphore):
        return "semaphore"
    if isinstance(obj, CondVar):
        return "condvar"
    if isinstance(obj, RWLock):
        return "rwlock"
    return "object"


@dataclass(eq=False)
class _ChildSpec:
    label: str
    fn: Any
    args: Tuple[AbstractValue, ...]
    dirty: bool = True
    summary: Optional[ThreadSummary] = None


def _spawn_key(fn: Any) -> Any:
    if isinstance(fn, _StaticFunc):
        return fn.node
    return fn.__code__


def _analyze_one(
    label: str,
    fn: Any,
    args: Tuple[AbstractValue, ...],
    multi_instance: bool,
) -> Tuple[ThreadSummary, List[Tuple[Any, Tuple[AbstractValue, ...], Optional[str]]]]:
    collector = _Collector()
    interp = _Interpreter(collector)
    state = _AbsState({}, set(), set())
    try:
        exit_state, _ = interp._run_callable(fn, list(args), {}, state)
        exit_unreleased = (
            frozenset(exit_state.must_held) if exit_state.alive else frozenset()
        )
    except _Top as top:
        return ThreadSummary.make_top(label, top.reason, multi_instance), []
    except RecursionError:  # pragma: no cover - defensive
        return ThreadSummary.make_top(label, "analyzer recursion limit", multi_instance), []
    except Exception as exc:
        # Safety net: a bug in the analyzer must degrade to TOP, never
        # to a silently wrong summary.
        reason = f"analyzer error: {type(exc).__name__}: {exc}"
        return ThreadSummary.make_top(label, reason, multi_instance), []
    summary = ThreadSummary(
        label=label,
        top=False,
        top_reason="",
        multi_instance=multi_instance,
        accesses=tuple(collector.accesses),
        lock_edges=frozenset(collector.lock_edges),
        exit_unreleased=exit_unreleased,
        double_acquires=tuple(collector.double_acquires),
        waited_events=frozenset(collector.waited_events),
        signalled_events=frozenset(collector.signalled_events),
        spawned_labels=tuple(
            name or getattr(fn_, "name", None) or getattr(fn_, "__name__", "child")
            for fn_, _, name in collector.spawns
        ),
    )
    return summary, collector.spawns


def analyze_program(program: Program) -> ProgramSummary:
    """Compute sound static summaries for every thread of ``program``.

    Instantiates the program once (running only its setup function, no
    thread body executes) to learn the shared-object catalog and the
    root thread specs, then abstractly interprets each thread body and,
    transitively, every body it can ``spawn``.

    :class:`~repro.invivo.program.InvivoProgram` instances are routed
    to the source-level interpreter in :mod:`repro.analysis.invivo`,
    which understands the adapter vocabulary instead of the effect DSL.
    """
    from ..invivo.program import InvivoProgram

    if isinstance(program, InvivoProgram):
        from .invivo import analyze_invivo_program

        return analyze_invivo_program(program)
    world, specs = program.instantiate()
    variables: Dict[str, str] = {}
    events_initially_set: Dict[str, bool] = {}
    for obj in world.objects:
        variables[obj.name] = _category(obj)
        if isinstance(obj, Event):
            events_initially_set[obj.name] = obj.is_set

    summaries: List[ThreadSummary] = []
    children: Dict[Any, _ChildSpec] = {}
    used_labels: Set[str] = set()

    def unique_label(base: str) -> str:
        label = base
        n = 2
        while label in used_labels:
            label = f"{base}~{n}"
            n += 1
        used_labels.add(label)
        return label

    def note_spawns(
        parent_label: str,
        spawns: List[Tuple[Any, Tuple[AbstractValue, ...], Optional[str]]],
    ) -> None:
        for fn, args, name in spawns:
            key = _spawn_key(fn)
            fn_name = (
                fn.name if isinstance(fn, _StaticFunc) else fn.__name__
            )
            spec = children.get(key)
            if spec is None:
                label = unique_label(name or f"{parent_label}/{fn_name}")
                children[key] = _ChildSpec(label, fn, tuple(args))
                continue
            # The same body spawned again: join the argument vectors so
            # one summary covers every instance.
            if len(spec.args) != len(args):
                joined: Tuple[AbstractValue, ...] = tuple(
                    UNKNOWN for _ in range(max(len(spec.args), len(args)))
                )
            else:
                joined = tuple(_join(a, b) for a, b in zip(spec.args, args))
            if not all(_same_abstract(a, b) for a, b in zip(joined, spec.args)) or len(
                joined
            ) != len(spec.args):
                spec.args = joined
                spec.dirty = True

    for label, body, args in specs:
        root_label = unique_label(label)
        summary, spawns = _analyze_one(
            root_label,
            body,
            tuple(Concrete(a) for a in args),
            multi_instance=False,
        )
        summaries.append(summary)
        note_spawns(root_label, spawns)

    # Iterate child analyses to a fixpoint over joined spawn arguments.
    for _ in range(10_000):
        dirty = [spec for spec in children.values() if spec.dirty]
        if not dirty:
            break
        for spec in dirty:
            spec.dirty = False
            summary, spawns = _analyze_one(
                spec.label,
                spec.fn,
                spec.args,
                multi_instance=True,
            )
            spec.summary = summary
            note_spawns(spec.label, spawns)
    else:  # pragma: no cover - defensive
        for spec in children.values():
            if spec.dirty:
                spec.summary = ThreadSummary.make_top(
                    spec.label, "spawn fixpoint did not converge", True
                )

    for spec in children.values():
        if spec.summary is not None:
            summaries.append(spec.summary)

    return ProgramSummary(
        program=program.name,
        threads=tuple(summaries),
        variables=variables,
        events_initially_set=events_initially_set,
    )
