"""Static access summaries of in-vivo thread callables.

In-vivo thread bodies (:mod:`repro.invivo`) are ordinary callables
whose shared-state effects hide inside *method calls* on adapter
objects (``lock.acquire()``, ``shared.set(...)``, ``with cond:
cond.wait()``).  This module reads their *source* and abstractly
interprets it, never running a body:

* **Values** live in a three-level lattice: ``Concrete(v)`` (exactly
  one runtime value, typically an adapter captured from the enclosing
  ``setup`` closure), ``AnyOf(v1, ..., vk)`` (one of a small known
  set, e.g. a loop variable over ``range(3)``), and ``UNKNOWN`` (no
  information).
* **Accesses** are recorded whenever an adapter operation is
  interpreted: the same ``(kind, variable)`` pairs the adapter's
  runtime methods perform (``Condition.wait`` records ``CV_WAIT``,
  ``RELEASE`` and the re-``ACQUIRE`` of the backing mutex, mirroring
  the engine's wait protocol).  ``with`` statements are interpreted
  natively.
* **TOP**: anything the interpreter cannot prove it handles exactly
  aborts the thread's summary with a recorded reason.  *Every* call of
  an unresolved or opaque callee is TOP -- real code may hide adapter
  operations anywhere -- as are generator constructs, dynamic
  attribute targets, and callable-valued arguments smuggled into
  builtins.  A per-thread safety net converts any analyzer exception
  into TOP too, so a bug in the analysis can only lose precision.

On the same pass the interpreter collects the **hidden-state** facts
the lint in :mod:`repro.analysis.lint` reports: plain attributes and
module globals written by a checked thread (``hidden_writes``) and the
attribute/global values the analysis constant-folded
(``resolved_attrs``).  A post-pass degrades any thread whose folded
values another thread mutates, so stale folds can never produce an
unsound summary.

Soundness contract: for every non-TOP thread, the dynamic accesses in
any execution are contained in ``summary.access_pairs`` (the in-vivo
oracles cross-validate this dynamically), with one documented
carve-out (see ``docs/invivo.md``): effects smuggled through
user-defined dunder methods invoked implicitly (``__bool__``,
``__iter__``, ``__eq__``...) on objects the analysis holds concretely.
Adapter operations written as plain statements and calls, the only
idiom the runtime supports well, are covered exactly.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import textwrap
import types
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from ..core.effects import EffectKind
from ..core.objects import SharedObject
from ..core.program import check as _check_fn
from ..core.sync import Barrier
from ..invivo import adapters as _ad
from ..invivo.program import InvivoProgram

__all__ = ["ProgramSummary", "ThreadSummary", "analyze_program"]

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


def _same_abstract(a: AbstractValue, b: AbstractValue) -> bool:
    if a is b:
        return True
    if isinstance(a, Concrete) and isinstance(b, Concrete):
        return _same_runtime_value(a.value, b.value)
    if isinstance(a, AnyOf) and isinstance(b, AnyOf):
        return a == b
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
    pa = _possible(a)
    pb = _possible(b)
    if pa is None or pb is None:
        return UNKNOWN
    return _value_of(list(pa) + list(pb))


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


@dataclass(eq=False)
class _AdapterMethod:
    """A bound adapter operation, e.g. the value of ``lock.acquire``."""

    objects: Tuple[Any, ...]
    attr: str


#: Sentinel: an attribute exists but is plain data we refuse to fold.
_UNFOLDED = object()

#: One recorded access: an effect kind on a core shared object.
_Access = Tuple[EffectKind, Any]


# ---------------------------------------------------------------------------
# Adapter vocabulary.
# ---------------------------------------------------------------------------


#: Adapter methods the interpreter models; anything else is TOP.
_ADAPTER_METHODS: Dict[Type[Any], FrozenSet[str]] = {
    _ad.Lock: frozenset(
        {"acquire", "release", "locked", "__enter__", "__exit__"}
    ),
    _ad.RLock: frozenset({"acquire", "release", "__enter__", "__exit__"}),
    _ad.Event: frozenset({"is_set", "set", "clear", "wait"}),
    _ad.Semaphore: frozenset({"acquire", "release", "__enter__", "__exit__"}),
    _ad.Condition: frozenset(
        {
            "acquire",
            "release",
            "__enter__",
            "__exit__",
            "wait",
            "wait_for",
            "notify",
            "notify_all",
        }
    ),
    _ad.Shared: frozenset({"get", "set"}),
    _ad.Atomic: frozenset({"get", "set", "add", "cas", "exchange"}),
}

_ATOMIC_METHOD_KINDS = {
    "get": EffectKind.ATOMIC_READ,
    "set": EffectKind.ATOMIC_WRITE,
    "add": EffectKind.ATOMIC_ADD,
    "cas": EffectKind.CAS,
    "exchange": EffectKind.EXCHANGE,
}

#: C callables known not to reach back into adapter operations.
_BENIGN_CALLABLES = frozenset(
    {isinstance, issubclass, repr, id, hash, callable, format, print}
)

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


def _methods_of(obj: Any) -> Optional[FrozenSet[str]]:
    for cls in type(obj).__mro__:
        methods = _ADAPTER_METHODS.get(cls)
        if methods is not None:
            return methods
    return None


def _data_access(o: Any, write: bool) -> _Access:
    """The access of reading or writing a ``Shared``/``Atomic`` value."""
    if isinstance(o, _ad.Shared):
        return (EffectKind.WRITE if write else EffectKind.READ), o._var
    return (EffectKind.ATOMIC_WRITE if write else EffectKind.ATOMIC_READ), o._var


def _hidden_key(owner: Any, attr: str) -> str:
    """Stable name for a plain attribute or module global."""
    if isinstance(owner, type):
        return f"{owner.__qualname__}.{attr}"
    if isinstance(owner, types.ModuleType):
        return f"{owner.__name__}.{attr}"
    return f"{type(owner).__qualname__}.{attr}"


def _foldable_attr(v: Any) -> bool:
    """Whether an attribute value may be constant-folded.

    Only identity-stable infrastructure values: adapters, callables,
    classes and modules.  Plain data (ints, ``None``, containers...) is
    *never* folded from an attribute -- it is exactly the hidden state
    another thread may mutate behind the analysis's back.
    """
    return (
        isinstance(v, (_ad._Adapter, types.ModuleType, type))
        or callable(v)
    )


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

    __slots__ = ("env", "alive")

    def __init__(self, env: Dict[str, AbstractValue], alive: bool = True) -> None:
        self.env = env
        self.alive = alive

    def copy(self) -> "_AbsState":
        return _AbsState(dict(self.env), self.alive)

    def adopt(self, other: "_AbsState") -> None:
        """Take ``other``'s bindings in place (callers hold ``self``)."""
        self.env.clear()
        self.env.update(other.env)


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
    return _AbsState(env, True)


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
    __slots__ = ("resolver", "locals", "returns", "loops", "module", "globals")

    def __init__(
        self,
        resolver: Callable[[str], AbstractValue],
        local_names: FrozenSet[str],
        module: str,
    ) -> None:
        self.resolver = resolver
        self.locals = local_names
        self.returns: List[AbstractValue] = []
        self.loops: List[_LoopCtx] = []
        #: Module of the callable (for global hidden-write keys).
        self.module = module
        #: Names declared ``global`` in the callable.
        self.globals: Set[str] = set()


@dataclass(eq=False)
class _FnInfo:
    key: Any
    name: str
    node: ast.FunctionDef
    resolver: Callable[[str], AbstractValue]
    defaults: Tuple[AbstractValue, ...]
    kw_defaults: Dict[str, AbstractValue]
    module: str


# ---------------------------------------------------------------------------
# Summary dataclasses.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreadSummary:
    """A sound over-approximation of one thread's shared accesses."""

    label: str
    top: bool = False
    top_reason: str = ""
    #: ``(kind.value, variable)`` pairs this thread may perform.
    access_pairs: FrozenSet[Tuple[str, str]] = frozenset()
    #: Plain attributes / module globals this thread writes without a
    #: Shared/Atomic wrapper (the hidden-state lint).
    hidden_writes: FrozenSet[str] = frozenset()
    #: Attribute/global values the analysis folded (degraded to TOP
    #: when some checked thread writes them).
    resolved_attrs: FrozenSet[str] = frozenset()

    @classmethod
    def make_top(cls, label: str, reason: str) -> "ThreadSummary":
        return cls(label=label, top=True, top_reason=reason)

    def covers(self, kind: EffectKind, variable: str) -> bool:
        """Whether a dynamic ``(kind, variable)`` access is explained."""
        if self.top:
            return True
        return (kind.value, variable) in self.access_pairs


@dataclass(frozen=True)
class ProgramSummary:
    """The static summaries of every thread a program starts."""

    program: str
    threads: Tuple[ThreadSummary, ...]

    @property
    def any_top(self) -> bool:
        return any(t.top for t in self.threads)

    def covers(self, kind: EffectKind, variable: str) -> bool:
        """Whether some thread summary explains the dynamic access."""
        return any(t.covers(kind, variable) for t in self.threads)


# ---------------------------------------------------------------------------
# The interpreter.
# ---------------------------------------------------------------------------


class _Interpreter:
    """Abstractly interprets one thread callable and what it calls."""

    def __init__(self) -> None:
        self._frames: List[_FrameCtx] = []
        self._active: List[Any] = []
        self._info_cache: Dict[Any, _FnInfo] = {}
        self._steps = 0
        #: ``(kind.value, variable)`` pairs recorded so far.
        self.accesses: Set[Tuple[str, str]] = set()
        #: Plain attributes / module globals this thread writes.
        self.hidden_writes: Set[str] = set()
        #: Attributes / globals whose values the analysis folded.
        self.resolved: Set[str] = set()

    # -- frame plumbing -----------------------------------------------

    @property
    def _frame(self) -> _FrameCtx:
        return self._frames[-1]

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > _STEP_BUDGET:
            raise _Top("analysis step budget exceeded")

    def _record(self, accesses: Sequence[_Access]) -> None:
        for kind, target in accesses:
            name = getattr(target, "name", None)
            if name is not None:
                self.accesses.add((kind.value, name))

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
        module = fn_globals.get("__name__", "?")
        resolved = self.resolved

        def resolver(name: str) -> AbstractValue:
            if name in closure:
                try:
                    return Concrete(closure[name].cell_contents)
                except ValueError:
                    return UNKNOWN
            if name in fn_globals:
                resolved.add(f"{module}.{name}")
                return Concrete(fn_globals[name])
            if hasattr(builtins, name):
                return Concrete(getattr(builtins, name))
            return UNKNOWN

        defaults = tuple(Concrete(v) for v in (fn.__defaults__ or ()))
        kw_defaults = {
            k: Concrete(v) for k, v in (fn.__kwdefaults__ or {}).items()
        }
        info = _FnInfo(
            code, fn.__name__, node, resolver, defaults, kw_defaults, module
        )
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
        return _FnInfo(
            sf.node, sf.name, sf.node, resolver, sf.defaults, kw_defaults,
            self._frame.module,
        )

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
    ) -> Tuple[bool, AbstractValue]:
        """Interpret a call: whether it can return, and its result.

        The caller's local environment is untouched.
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
        callee = _AbsState(self._bind_params(info, pos, kw))
        self._active.append(info.key)
        self._frames.append(
            _FrameCtx(info.resolver, _local_names(info.node), info.module)
        )
        try:
            out = self._exec_block(info.node.body, callee)
            rets = list(self._frame.returns)
            if out.alive:
                rets.append(Concrete(None))
        finally:
            self._frames.pop()
            self._active.pop()
        if not rets:
            return False, UNKNOWN
        ret = rets[0]
        for r in rets[1:]:
            ret = _join(ret, r)
        return True, ret

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
            self._exec_augassign(stmt, state)
            return state
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt, state)
        if isinstance(stmt, ast.While):
            return self._exec_while(stmt, state)
        if isinstance(stmt, ast.For):
            return self._exec_for(stmt, state)
        if isinstance(stmt, ast.With):
            return self._exec_with(stmt, state)
        if isinstance(stmt, ast.Return):
            value = (
                Concrete(None)
                if stmt.value is None
                else self._eval(stmt.value, state)
            )
            self._frame.returns.append(value)
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
            if stmt.exc is not None:
                self._eval(stmt.exc, state)
            if stmt.cause is not None:
                self._eval(stmt.cause, state)
            state.alive = False
            return state
        if isinstance(stmt, ast.Assert):
            self._eval(stmt.test, state)
            if stmt.msg is not None:
                # The message only evaluates on the failing path.
                self._eval(stmt.msg, state.copy())
            return state
        if isinstance(stmt, ast.FunctionDef):
            self._exec_functiondef(stmt, state)
            return state
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                state.env[bound] = UNKNOWN
            return state
        if isinstance(stmt, ast.Global):
            self._frame.globals.update(stmt.names)
            return state
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if not isinstance(target, ast.Name):
                    raise _Top("del of a non-name target")
                state.env[target.id] = UNKNOWN
            return state
        if isinstance(stmt, ast.Nonlocal):
            raise _Top("nonlocal rebinding is not analyzable")
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
        # The condition is evaluated once: it holds no yield (a yield
        # is TOP), and its accesses are recorded on that one pass.
        truth = _truth(self._eval(stmt.test, state))
        if truth is False:
            return self._exec_block(stmt.orelse, state) if stmt.orelse else state
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
            try:
                items = list(container)
            except Exception:
                return UNKNOWN
            if len(items) > 64:
                return UNKNOWN
            elements.extend(items)
        return _value_of(elements) if elements else UNKNOWN

    def _exec_with(self, stmt: ast.With, state: _AbsState) -> _AbsState:
        entered: List[Tuple[Any, ...]] = []
        for item in stmt.items:
            poss = _possible(self._eval(item.context_expr, state))
            if poss is None:
                raise _Top("with-statement on an unresolved context manager")
            if not all(isinstance(o, _ad._Adapter) for o in poss):
                raise _Top(
                    "with-statement on a non-adapter context manager"
                )
            objs = tuple(poss)
            ret = self._adapter_call(objs, "__enter__", (), {}, state)
            if item.optional_vars is not None:
                self._assign_target(item.optional_vars, ret, state)
            entered.append(objs)
        out = self._exec_block(stmt.body, state)
        # Every way out of the body -- fall-through, return, break,
        # continue, or an exception unwinding -- runs ``__exit__``,
        # which records the same accesses on each.
        for objs in reversed(entered):
            self._adapter_call(objs, "__exit__", (), {}, state)
        return out

    # -- assignment ---------------------------------------------------

    def _assign_target(
        self, target: ast.expr, value: AbstractValue, state: _AbsState
    ) -> None:
        if isinstance(target, ast.Name):
            if target.id in self._frame.globals:
                self._note_global_write(target.id, state)
                return
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
        if isinstance(target, ast.Attribute):
            objs = self._store_receivers(target, state)
            adapter_objs = [o for o in objs if isinstance(o, _ad._Adapter)]
            if adapter_objs:
                if len(adapter_objs) != len(objs):
                    raise _Top(
                        "attribute assignment on mixed adapter/plain "
                        "values"
                    )
                if target.attr == "value" and all(
                    isinstance(o, (_ad.Shared, _ad.Atomic))
                    for o in adapter_objs
                ):
                    self._record([_data_access(o, True) for o in adapter_objs])
                    return
                raise _Top(
                    f"assignment to adapter attribute {target.attr!r}"
                )
            for o in objs:
                self._note_hidden_write(o, target.attr)
            return
        if isinstance(target, ast.Subscript):
            self._check_subscript_store(target, state)
            self._invalidate_root(target, state)
            return
        raise _Top(f"unsupported assignment target {type(target).__name__}")

    def _store_receivers(
        self, target: ast.Attribute, state: _AbsState
    ) -> Tuple[Any, ...]:
        poss = _possible(self._eval(target.value, state))
        if poss is None:
            raise _Top(
                f"assignment to attribute {target.attr!r} on an "
                "unresolved receiver"
            )
        return poss

    def _exec_augassign(self, stmt: ast.AugAssign, state: _AbsState) -> None:
        value = self._eval(stmt.value, state)
        target = stmt.target
        if isinstance(target, ast.Name):
            if target.id in self._frame.globals:
                self._note_global_write(target.id, state)
                return
            current = self._load_name(target.id, state)
            state.env[target.id] = self._apply_binop(
                type(stmt.op), current, value
            )
            return
        if isinstance(target, ast.Attribute):
            objs = self._store_receivers(target, state)
            adapter_objs = [o for o in objs if isinstance(o, _ad._Adapter)]
            if adapter_objs:
                if len(adapter_objs) != len(objs) or target.attr != "value":
                    raise _Top(
                        "augmented assignment to adapter attribute "
                        f"{target.attr!r}"
                    )
                if not all(
                    isinstance(o, (_ad.Shared, _ad.Atomic)) for o in adapter_objs
                ):
                    raise _Top(
                        "augmented assignment to 'value' of a "
                        "non-data adapter"
                    )
                # ``shared.value += v`` reads then writes the variable.
                self._record([_data_access(o, False) for o in adapter_objs])
                self._record([_data_access(o, True) for o in adapter_objs])
                return
            # No invalidation: attribute *data* is never folded, and
            # folded infrastructure values are protected by the
            # resolved/written degrade pass in analyze_program.
            for o in objs:
                self._note_hidden_write(o, target.attr)
            return
        if isinstance(target, ast.Subscript):
            self._check_subscript_store(target, state)
            self._invalidate_root(target, state)
            return
        raise _Top(
            f"unsupported augmented-assignment target "
            f"{type(target).__name__}"
        )

    def _note_global_write(self, name: str, state: _AbsState) -> None:
        self.hidden_writes.add(f"{self._frame.module}.{name}")
        state.env[name] = UNKNOWN

    def _note_hidden_write(self, o: Any, attr: str) -> None:
        if isinstance(o, (_StaticFunc, _AdapterMethod, SharedObject, Barrier)):
            raise _Top(f"attribute {attr!r} assigned on analysis value")
        if not isinstance(o, (type, types.ModuleType)):
            setter = type(o).__setattr__
            if setter is not object.__setattr__:
                raise _Top(
                    f"attribute store via custom __setattr__ of "
                    f"{type(o).__name__}"
                )
        self.hidden_writes.add(_hidden_key(o, attr))

    def _check_subscript_store(
        self, target: ast.Subscript, state: _AbsState
    ) -> None:
        recv = self._eval(target.value, state)
        self._eval(target.slice, state)
        poss = _possible(recv)
        if poss is None or not all(
            isinstance(o, (dict, list, set, bytearray)) for o in poss
        ):
            raise _Top(
                "subscript assignment on a non-builtin container "
                "(a custom __setitem__ may hide adapter operations)"
            )

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
        if name in self._frame.globals:
            # A ``global`` name this function may rebind: never fold.
            return UNKNOWN
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
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for cur in ast.walk(node):
                if isinstance(cur, (ast.Call, ast.Attribute, ast.Await)):
                    raise _Top(
                        f"{type(node).__name__} containing calls or "
                        "attribute access"
                    )
            for gen in node.generators:
                self._eval(gen.iter, state)
            return UNKNOWN
        if isinstance(node, ast.Set):
            for elt in node.elts:
                self._eval(elt, state)
            return UNKNOWN
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self._eval(part, state)
            return UNKNOWN
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, state)
            self._assign_target(node.target, value, state)
            return value
        if isinstance(node, ast.Lambda):
            raise _Top("lambda in thread body")
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            raise _Top("yield in an in-vivo thread body")
        if isinstance(node, ast.Await):
            raise _Top("await in an in-vivo thread body")
        raise _Top(f"unsupported expression {type(node).__name__}")

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

    def _eval_attribute(
        self, node: ast.Attribute, state: _AbsState
    ) -> AbstractValue:
        obj = self._eval(node.value, state)
        poss = _possible(obj)
        if poss is None:
            if node.attr == "value":
                raise _Top(
                    "attribute 'value' on an unresolved receiver (may be "
                    "a Shared/Atomic property read)"
                )
            # Reading a plain attribute performs no adapter operation
            # (property receivers degrade below when resolved; see the
            # descriptor guard).  The *value* stays unknown.
            return UNKNOWN
        adapter_objs = [o for o in poss if isinstance(o, _ad._Adapter)]
        if adapter_objs:
            if len(adapter_objs) != len(poss):
                raise _Top(
                    f"attribute {node.attr!r} on mixed adapter/plain values"
                )
            return self._adapter_attribute(tuple(adapter_objs), node.attr)
        if any(isinstance(o, (SharedObject, Barrier)) for o in poss):
            raise _Top(
                f"attribute {node.attr!r} on a core shared object "
                "(adapters only in in-vivo code)"
            )
        results: List[Any] = []
        for o in poss:
            if isinstance(o, (_StaticFunc, _AdapterMethod)):
                raise _Top(f"attribute {node.attr!r} on analysis value")
            value = self._static_getattr(o, node.attr)
            if value is _UNFOLDED:
                return UNKNOWN
            self.resolved.add(_hidden_key(o, node.attr))
            results.append(value)
        return _value_of(results)

    def _static_getattr(self, o: Any, attr: str) -> Any:
        """Resolve ``o.attr`` without running user descriptors.

        Returns the folded value, ``_UNFOLDED`` for plain data (sound:
        hidden state is never folded), and raises :class:`_Top` when
        the attribute is dynamic or a user descriptor could run code.
        """
        try:
            static_value = inspect.getattr_static(o, attr)
        except AttributeError:
            raise _Top(
                f"dynamic attribute {attr!r} of {type(o).__name__} "
                "(resolved via __getattr__)"
            )
        if isinstance(static_value, property) or (
            hasattr(type(static_value), "__get__")
            and not isinstance(
                static_value,
                (
                    types.FunctionType,
                    types.BuiltinFunctionType,
                    classmethod,
                    staticmethod,
                    types.MemberDescriptorType,
                    types.GetSetDescriptorType,
                ),
            )
        ):
            raise _Top(
                f"descriptor attribute {attr!r} of {type(o).__name__} "
                "may run arbitrary code"
            )
        try:
            value = getattr(o, attr)
        except Exception:
            raise _Top(f"unreadable attribute {attr!r}")
        if _foldable_attr(value):
            return value
        return _UNFOLDED

    def _eval_subscript(self, node: ast.Subscript, state: _AbsState) -> AbstractValue:
        container = self._eval(node.value, state)
        index = self._eval(node.slice, state)
        pc = _possible(container)
        if pc is None:
            # Container and index were evaluated (accesses recorded).
            return UNKNOWN
        pi = _possible(index)
        results: List[Any] = []
        for c in pc:
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
        return self._call_abstract(func, pos, kw, state, node)

    def _call_abstract(
        self,
        func: AbstractValue,
        pos: Sequence[AbstractValue],
        kw: Mapping[str, AbstractValue],
        state: _AbsState,
        node: Optional[ast.Call] = None,
    ) -> AbstractValue:
        pf = _possible(func)
        if pf is None:
            # A call in real code may hide adapter operations; an
            # unresolved callee is never harmless.
            raise _Top("call of an unresolved callee")
        methods = [c for c in pf if isinstance(c, _AdapterMethod)]
        if methods:
            if len(methods) != len(pf):
                raise _Top("call of mixed adapter-method/plain values")
            attrs = {m.attr for m in methods}
            if len(attrs) != 1:
                raise _Top("call of an ambiguous adapter method")
            objs = tuple(o for m in methods for o in m.objects)
            return self._adapter_call(objs, attrs.pop(), pos, kw, state)
        if len(pf) == 1:
            return self._dispatch_call(pf[0], node, pos, kw, state)
        branches: List[_AbsState] = []
        result: AbstractValue = UNKNOWN
        for i, candidate in enumerate(pf):
            branch = state.copy()
            ret = self._dispatch_call(candidate, node, pos, kw, branch)
            result = ret if i == 0 else _join(result, ret)
            branches.append(branch)
        merged = _merge_many(branches)
        state.adopt(merged)
        state.alive = merged.alive
        return result

    def _dispatch_call(
        self,
        callee: Any,
        node: Optional[ast.Call],
        pos: Sequence[AbstractValue],
        kw: Mapping[str, AbstractValue],
        state: _AbsState,
    ) -> AbstractValue:
        if isinstance(callee, _ad._Adapter):
            raise _Top(f"adapter {callee.name!r} called directly")
        if callee is _check_fn:
            return Concrete(None)
        if isinstance(callee, _StaticFunc):
            # A nested generator is inlined like any helper: a yield it
            # reaches is TOP.
            self._check_snapshot(callee, state)
            return self._inline_call(callee, pos, kw, state)
        if callee in _SAFE_BUILTINS:
            if self._args_conceal_effects(pos, kw):
                raise _Top(
                    "callable or user-typed argument to builtin "
                    f"{_SAFE_BUILTINS[callee]}() may hide adapter "
                    "operations"
                )
            return self._fold_builtin(callee, pos, kw)
        if isinstance(callee, type):
            if issubclass(callee, _ad._Adapter):
                raise _Top(
                    "adapter constructed inside a checked thread "
                    "(create shared state in setup)"
                )
            if issubclass(callee, BaseException) or callee is object:
                return UNKNOWN
            if callee.__init__ is object.__init__:  # type: ignore[misc]
                return UNKNOWN
            raise _Top(
                f"construction of {callee.__name__!r} inside a checked "
                "thread"
            )
        if inspect.isgeneratorfunction(callee) or inspect.iscoroutinefunction(
            callee
        ):
            name = getattr(callee, "__name__", "?")
            raise _Top(
                f"call of generator/coroutine function {name!r} in "
                "in-vivo code"
            )
        if inspect.ismethod(callee) or getattr(callee, "__code__", None):
            return self._inline_call(callee, pos, kw, state)
        if callee in _BENIGN_CALLABLES:
            return Concrete(None) if callee is print else UNKNOWN
        if callable(callee):
            if self._args_conceal_effects(pos, kw):
                name = getattr(callee, "__name__", repr(callee))
                raise _Top(
                    f"opaque callable {name!r} with effect-capable "
                    "arguments"
                )
            if node is not None and isinstance(node.func, ast.Attribute):
                self._invalidate_root(node.func, state)
            return UNKNOWN
        # Calling a non-callable raises at runtime; the path dies.
        state.alive = False
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

    def _inline_call(
        self,
        callee: Any,
        pos: Sequence[AbstractValue],
        kw: Mapping[str, AbstractValue],
        state: _AbsState,
    ) -> AbstractValue:
        returns, ret = self._run_callable(callee, list(pos), kw)
        state.alive = returns
        return ret

    def _fold_builtin(
        self,
        callee: Any,
        pos: Sequence[AbstractValue],
        kw: Mapping[str, AbstractValue],
    ) -> AbstractValue:
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

    def _args_conceal_effects(
        self,
        pos: Sequence[AbstractValue],
        kw: Mapping[str, AbstractValue],
    ) -> bool:
        """Whether an opaque call could run effectful code on its args.

        Flags known callables, adapters, analysis markers and instances
        of user-defined classes (whose dunder methods an opaque callee
        might invoke).  ``UNKNOWN`` arguments pass -- the documented
        precision/soundness trade-off recorded in docs/invivo.md.
        """
        values: List[AbstractValue] = list(pos) + list(kw.values())
        for value in values:
            poss = _possible(value)
            if poss is None:
                continue
            for item in poss:
                if self._effect_capable(item):
                    return True
                if isinstance(item, (tuple, list, set, frozenset)):
                    if any(self._effect_capable(sub) for sub in item):
                        return True
                elif isinstance(item, dict):
                    if any(
                        self._effect_capable(sub)
                        for sub in list(item.keys()) + list(item.values())
                    ):
                        return True
        return False

    @staticmethod
    def _effect_capable(x: Any) -> bool:
        if isinstance(
            x, (_ad._Adapter, _StaticFunc, _AdapterMethod, SharedObject, Barrier)
        ):
            return True
        if callable(x) and not isinstance(x, type):
            return True
        mod = getattr(type(x), "__module__", "builtins")
        return mod not in ("builtins", "numbers", "decimal", "fractions")

    # -- adapter operations -------------------------------------------

    def _adapter_attribute(
        self, objs: Tuple[Any, ...], attr: str
    ) -> AbstractValue:
        if attr == "name":
            return _value_of([o.name for o in objs])
        if attr == "value":
            if all(isinstance(o, (_ad.Shared, _ad.Atomic)) for o in objs):
                # Reading the property performs the read right here.
                self._record([_data_access(o, False) for o in objs])
                return UNKNOWN
            raise _Top("attribute 'value' on a non-data adapter")
        for o in objs:
            methods = _methods_of(o)
            if methods is None or attr not in methods:
                raise _Top(
                    f"attribute {attr!r} of adapter {o.name!r} is not a "
                    "modelled operation"
                )
        return Concrete(_AdapterMethod(tuple(objs), attr))

    @staticmethod
    def _acquire(
        target: Any,
        pos: Sequence[AbstractValue],
        kw: Mapping[str, AbstractValue],
        kind: EffectKind,
    ) -> Tuple[List[_Access], AbstractValue]:
        """A blocking acquire, a try-acquire, or (unknown) either."""
        blocking = _truth(kw.get("blocking", pos[0] if pos else Concrete(True)))
        if blocking is True:
            return [(kind, target)], Concrete(True)
        try_acquire = (EffectKind.TRY_ACQUIRE, target)
        if blocking is False:
            return [try_acquire], UNKNOWN
        return [(kind, target), try_acquire], UNKNOWN

    def _adapter_op(
        self,
        o: Any,
        attr: str,
        pos: Sequence[AbstractValue],
        kw: Mapping[str, AbstractValue],
    ) -> Tuple[List[_Access], AbstractValue]:
        """The accesses and abstract result of one adapter call."""
        if isinstance(o, (_ad.Lock, _ad.RLock, _ad.Condition)):
            if isinstance(o, _ad.Lock):
                lock: Any = o._mutex
            elif isinstance(o, _ad.RLock):
                lock = o._section
            else:
                lock = o._lock._mutex
            if attr == "__enter__":
                return self._acquire(lock, (), {}, EffectKind.ACQUIRE)
            if attr == "acquire":
                return self._acquire(lock, pos, kw, EffectKind.ACQUIRE)
            if attr == "release":
                return [(EffectKind.RELEASE, lock)], Concrete(None)
            if attr == "__exit__":
                return [(EffectKind.RELEASE, lock)], Concrete(False)
            if attr == "locked" and isinstance(o, _ad.Lock):
                return [(EffectKind.ATOMIC_READ, lock)], UNKNOWN
            if isinstance(o, _ad.Condition):
                if attr == "wait":
                    # The engine's protocol: the CV_WAIT step releases
                    # the mutex, and the woken thread re-acquires it
                    # (the runtime rewrites the pending op to ACQUIRE).
                    return [
                        (EffectKind.CV_WAIT, o._cv),
                        (EffectKind.RELEASE, lock),
                        (EffectKind.ACQUIRE, lock),
                    ], Concrete(True)
                if attr == "notify":
                    return [(EffectKind.CV_NOTIFY, o._cv)], Concrete(None)
                if attr == "notify_all":
                    return [(EffectKind.CV_BROADCAST, o._cv)], Concrete(None)
        elif isinstance(o, _ad.Event):
            if attr == "is_set":
                return [(EffectKind.ATOMIC_READ, o._event)], UNKNOWN
            if attr == "set":
                return [(EffectKind.SIGNAL, o._event)], Concrete(None)
            if attr == "clear":
                return [(EffectKind.RESET, o._event)], Concrete(None)
            if attr == "wait":
                return [(EffectKind.WAIT, o._event)], Concrete(True)
        elif isinstance(o, _ad.Semaphore):
            if attr == "__enter__":
                return self._acquire(o._sem, (), {}, EffectKind.SEM_ACQUIRE)
            if attr == "acquire":
                return self._acquire(o._sem, pos, kw, EffectKind.SEM_ACQUIRE)
            if attr == "release":
                return [(EffectKind.SEM_RELEASE, o._sem)], Concrete(None)
            if attr == "__exit__":
                return [(EffectKind.SEM_RELEASE, o._sem)], Concrete(False)
        elif isinstance(o, _ad.Shared):
            if attr in ("get", "set"):
                write = attr == "set"
                return [_data_access(o, write)], (
                    Concrete(None) if write else UNKNOWN
                )
        elif isinstance(o, _ad.Atomic):
            kind = _ATOMIC_METHOD_KINDS.get(attr)
            if kind is not None:
                ret = Concrete(None) if attr == "set" else UNKNOWN
                return [(kind, o._var)], ret
        raise _Top(
            f"unmodelled operation {attr!r} on adapter "
            f"{getattr(o, 'name', o)!r}"
        )

    def _adapter_call(
        self,
        objs: Tuple[Any, ...],
        attr: str,
        pos: Sequence[AbstractValue],
        kw: Mapping[str, AbstractValue],
        state: _AbsState,
    ) -> AbstractValue:
        if attr == "wait_for":
            return self._condition_wait_for(objs, pos, kw, state)
        result: AbstractValue = UNKNOWN
        for i, o in enumerate(objs):
            accesses, ret = self._adapter_op(o, attr, pos, kw)
            self._record(accesses)
            result = ret if i == 0 else _join(result, ret)
        return result

    def _condition_wait_for(
        self,
        objs: Tuple[Any, ...],
        pos: Sequence[AbstractValue],
        kw: Mapping[str, AbstractValue],
        state: _AbsState,
    ) -> AbstractValue:
        if len(objs) != 1 or not isinstance(objs[0], _ad.Condition):
            raise _Top("wait_for on an ambiguous receiver")
        cond = objs[0]
        predicate = kw.get("predicate", pos[0] if pos else None)
        if predicate is None:
            raise _Top("wait_for without a predicate")
        wait_accesses, _ = self._adapter_op(cond, "wait", (), {})
        self._call_abstract(predicate, (), {}, state)
        # Two wait+re-check passes merged against the zero-wait path.
        for _ in range(2):
            branch = state.copy()
            self._record(wait_accesses)
            self._call_abstract(predicate, (), {}, branch)
            state.adopt(_merge_states(state, branch))
        return UNKNOWN


# ---------------------------------------------------------------------------
# Program-level analysis.
# ---------------------------------------------------------------------------


def _analyze_one(
    label: str, fn: Any, args: Tuple[AbstractValue, ...]
) -> ThreadSummary:
    interp = _Interpreter()
    try:
        interp._run_callable(fn, list(args), {})
    except _Top as top:
        return ThreadSummary.make_top(label, top.reason)
    except RecursionError:  # pragma: no cover - defensive
        return ThreadSummary.make_top(label, "analyzer recursion limit")
    except Exception as exc:
        # Safety net: analyzer bugs degrade to TOP, never to a silently
        # wrong summary.
        reason = f"analyzer error: {type(exc).__name__}: {exc}"
        return ThreadSummary.make_top(label, reason)
    return ThreadSummary(
        label=label,
        access_pairs=frozenset(interp.accesses),
        hidden_writes=frozenset(interp.hidden_writes),
        resolved_attrs=frozenset(interp.resolved),
    )


def analyze_program(program: InvivoProgram) -> ProgramSummary:
    """Compute sound static summaries for an :class:`InvivoProgram`.

    Runs the program's setup once (``instantiate_raw``; no thread body
    executes) to learn the raw thread callables, interprets each
    callable's source, then cross-checks the hidden-state facts: any
    thread whose constant-folded attributes or globals
    (``resolved_attrs``) are written by some checked thread
    (``hidden_writes``) is degraded to TOP -- its folds may be stale.
    """
    if not isinstance(program, InvivoProgram):
        raise TypeError(
            "the static analysis reads in-vivo programs only, got "
            f"{type(program).__name__} {getattr(program, 'name', program)!r}"
        )
    _world, _ctx, specs = program.instantiate_raw()
    used_labels: Set[str] = set()
    summaries: List[ThreadSummary] = []
    for label, fn, args in specs:
        unique = label
        n = 2
        while unique in used_labels:
            unique = f"{label}~{n}"
            n += 1
        used_labels.add(unique)
        summaries.append(
            _analyze_one(unique, fn, tuple(Concrete(a) for a in args))
        )

    written: Set[str] = set()
    for summary in summaries:
        written |= summary.hidden_writes
    out: List[ThreadSummary] = []
    for summary in summaries:
        clash = summary.resolved_attrs & written
        if clash:
            names = ", ".join(sorted(clash))
            summary = ThreadSummary.make_top(
                summary.label,
                f"statically resolved state ({names}) is mutated by "
                "a checked thread",
            )
        out.append(summary)
    return ProgramSummary(program=program.name, threads=tuple(out))
