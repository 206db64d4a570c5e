"""The explicit-state checker over ZING models.

:class:`ZingStateSpace` realizes the uniform
:class:`~repro.core.transition.StateSpace` interface with *explicit*
states: every node carries a full (canonicalized) snapshot, so ICB and
all baseline strategies run on models exactly as they do on native
programs -- with state caching available, the configuration the paper
used for the transaction-manager benchmark.

:class:`ZingChecker` adds the classic ZING search loop: depth-first
search with a state cache and a delta-compressed stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Set, Tuple

from ..core.objects import digest, encode
from ..core.thread import ThreadId

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..obs.instrument import Instrumentation
from ..core.transition import StateSpace
from ..errors import BugKind, BugReport, ProgramAssertionError
from ..search.plan import CheckPlan, SearchLimits
from ..search.strategy import SearchResult, Strategy
from .delta import DeltaStack, flatten
from .model import CompiledModel, ZingCtx, ZingModel
from .symmetry import canonicalize


def _copy_value(value: Any) -> Any:
    """Deep-copy the mutable containers of a model state."""
    if isinstance(value, dict):
        return {key: _copy_value(sub) for key, sub in value.items()}
    if isinstance(value, list):
        return [_copy_value(sub) for sub in value]
    if isinstance(value, set):
        return {_copy_value(sub) for sub in value}
    if isinstance(value, tuple):
        return tuple(_copy_value(sub) for sub in value)
    return value


@dataclass(frozen=True)
class _ThreadRaw:
    """Mutable-state carrier for one model thread (copied per step)."""

    pc: int
    locals: Dict[str, Any]
    finished: bool


@dataclass(frozen=True)
class ZingNode:
    """One node of the explicit-state search.

    ``frozen`` is the canonical state used for fingerprints and
    caching; ``preemptions``, ``schedule`` and ``bugs`` are path
    properties and deliberately excluded from it.
    """

    frozen: Hashable
    globals_raw: Dict[str, Any]
    threads_raw: Tuple[_ThreadRaw, ...]
    last: Optional[ThreadId]
    preemptions: int
    steps: int
    blocking_steps: int
    bugs: Tuple[BugReport, ...]
    schedule: Tuple[ThreadId, ...]


class ZingStateSpace(StateSpace):
    """Explicit-state view of a compiled ZING model."""

    def __init__(
        self,
        model: ZingModel | CompiledModel,
        obs: Optional["Instrumentation"] = None,
    ) -> None:
        self.compiled = model if isinstance(model, CompiledModel) else model.compile()
        self.obs = obs
        self.tids = tuple(
            ThreadId((i,), label)
            for i, label in enumerate(self.compiled.thread_labels)
        )

    # -- node construction --------------------------------------------------

    def _freeze(
        self, globals_raw: Dict[str, Any], threads_raw: Tuple[_ThreadRaw, ...]
    ) -> Hashable:
        state = {
            "g": globals_raw,
            "t": [
                {"pc": t.pc, "l": t.locals, "done": t.finished}
                for t in threads_raw
            ],
        }
        return canonicalize(state)

    def initial_state(self) -> ZingNode:
        model = self.compiled.model
        globals_raw = _copy_value(model.initial_globals())
        threads_raw = tuple(
            _ThreadRaw(pc=0, locals=_copy_value(model.initial_locals(i)), finished=False)
            for i in range(len(self.tids))
        )
        return ZingNode(
            frozen=self._freeze(globals_raw, threads_raw),
            globals_raw=globals_raw,
            threads_raw=threads_raw,
            last=None,
            preemptions=0,
            steps=0,
            blocking_steps=0,
            bugs=(),
            schedule=(),
        )

    # -- StateSpace interface ---------------------------------------------------

    def enabled(self, state: object) -> Tuple[ThreadId, ...]:
        obs = self.obs
        if obs is None:
            return self._enabled(state)
        t0 = obs.hook_schedule.start()
        result = self._enabled(state)
        obs.hook_schedule.stop(t0)
        return result

    def _enabled(self, state: object) -> Tuple[ThreadId, ...]:
        node = self._node(state)
        if node.bugs:
            return ()
        enabled: List[ThreadId] = []
        for index, tid in enumerate(self.tids):
            if self._thread_enabled(node, index):
                enabled.append(tid)
        return tuple(enabled)

    def _thread_enabled(self, node: ZingNode, index: int) -> bool:
        thread = node.threads_raw[index]
        if thread.finished:
            return False
        program = self.compiled.programs[index]
        if thread.pc >= len(program):
            return False
        instr = program[thread.pc]
        if instr.guard is None:
            return True
        # Guards must be pure: they read the state through the same ctx
        # view as actions but must not mutate it.
        ctx = ZingCtx(index, node.globals_raw, thread.locals)
        return bool(instr.guard(ctx))

    def execute(self, state: object, tid: ThreadId) -> ZingNode:
        obs = self.obs
        if obs is None:
            return self._execute(state, tid)
        t0 = obs.hook_execute.start()
        result = self._execute(state, tid)
        obs.hook_execute.stop(t0)
        return result

    def _execute(self, state: object, tid: ThreadId) -> ZingNode:
        node = self._node(state)
        index = tid.path[0]
        enabled = self._enabled(node)
        preempting = (
            node.last is not None and tid != node.last and node.last in enabled
        )
        preemptions = node.preemptions + (1 if preempting else 0)
        schedule = node.schedule + (tid,)

        globals_raw = _copy_value(node.globals_raw)
        threads_raw = list(node.threads_raw)
        thread = threads_raw[index]
        locals_raw = _copy_value(thread.locals)
        program = self.compiled.programs[index]
        instr = program[thread.pc]

        ctx = ZingCtx(index, globals_raw, locals_raw)
        bugs = node.bugs
        try:
            instr.action(ctx)
        except ProgramAssertionError as exc:
            bugs = bugs + (
                BugReport(
                    kind=BugKind.ASSERTION,
                    message=exc.message,
                    thread=tid,
                    schedule=schedule,
                    preemptions=preemptions,
                    step_index=node.steps,
                ),
            )
        except Exception as exc:  # noqa: BLE001 - model fault
            bugs = bugs + (
                BugReport(
                    kind=BugKind.UNCAUGHT_EXCEPTION,
                    message=f"{type(exc).__name__}: {exc}",
                    thread=tid,
                    schedule=schedule,
                    preemptions=preemptions,
                    step_index=node.steps,
                ),
            )

        if ctx.finished:
            next_pc, finished = thread.pc, True
        elif ctx.jump is not None:
            next_pc, finished = self.compiled.resolve(index, ctx.jump), False
        else:
            next_pc = thread.pc + 1
            finished = next_pc >= len(program)
        threads_raw[index] = _ThreadRaw(pc=next_pc, locals=locals_raw, finished=finished)
        threads_tuple = tuple(threads_raw)

        return ZingNode(
            frozen=self._freeze(globals_raw, threads_tuple),
            globals_raw=globals_raw,
            threads_raw=threads_tuple,
            last=tid,
            preemptions=preemptions,
            steps=node.steps + 1,
            blocking_steps=node.blocking_steps + (1 if instr.guard is not None else 0),
            bugs=bugs,
            schedule=schedule,
        )

    def last_thread(self, state: object) -> Optional[ThreadId]:
        return self._node(state).last

    def preemptions(self, state: object) -> int:
        return self._node(state).preemptions

    def fingerprint(self, state: object) -> Hashable:
        """64-bit digest of the canonical state's encoding: the same in
        every process, whatever ``PYTHONHASHSEED`` is."""
        obs = self.obs
        if obs is None:
            return digest(encode(self._node(state).frozen))
        t0 = obs.hook_fingerprint.start()
        result = digest(encode(self._node(state).frozen))
        obs.hook_fingerprint.stop(t0)
        return result

    def is_terminal(self, state: object) -> bool:
        node = self._node(state)
        return bool(node.bugs) or not self._enabled(node)

    def bugs(self, state: object) -> Tuple[BugReport, ...]:
        node = self._node(state)
        if node.bugs:
            return node.bugs
        if not self._enabled(node):
            stuck = [
                str(self.tids[i])
                for i, t in enumerate(node.threads_raw)
                if not t.finished
            ]
            if stuck:
                return (
                    BugReport(
                        kind=BugKind.DEADLOCK,
                        message=f"deadlock: threads blocked forever: {', '.join(stuck)}",
                        schedule=node.schedule,
                        preemptions=node.preemptions,
                        step_index=node.steps,
                    ),
                )
        return ()

    def schedule_of(self, state: object) -> Tuple[ThreadId, ...]:
        return self._node(state).schedule

    def execution_stats(self, state: object) -> Tuple[int, int, int]:
        """(steps K, blocking steps B, preemptions c) of the path."""
        node = self._node(state)
        return node.steps, node.blocking_steps, node.preemptions

    def thread_count(self, state: object) -> int:
        return len(self.tids)

    @staticmethod
    def _node(state: object) -> ZingNode:
        assert isinstance(state, ZingNode)
        return state


def _node_state_dict(node: ZingNode) -> Dict[str, Any]:
    """The raw nested-dict state of a node (for stack flattening)."""
    return {
        "g": node.globals_raw,
        "t": [
            {"pc": t.pc, "l": t.locals, "done": t.finished}
            for t in node.threads_raw
        ],
    }


class ZingChecker:
    """Model checking of ZING models, defaulting to ICB with caching."""

    def __init__(self, model: ZingModel | CompiledModel) -> None:
        self.compiled = model if isinstance(model, CompiledModel) else model.compile()

    def space(self, obs: Optional["Instrumentation"] = None) -> ZingStateSpace:
        """A fresh explicit-state space for this model."""
        return ZingStateSpace(self.compiled, obs=obs)

    def check(
        self,
        strategy: Optional[Strategy] = None,
        max_bound: Optional[int] = None,
        limits: Optional[SearchLimits] = None,
        state_caching: Optional[bool] = None,
        obs: Optional["Instrumentation"] = None,
    ) -> SearchResult:
        """Explore the model; ICB with state caching by default.

        ``state_caching`` defaults to on for ICB.  A custom ``strategy``
        takes only the budgets: the plan refuses it together with
        ``max_bound`` or ``state_caching``.
        """
        if state_caching is None:
            state_caching = strategy is None
        plan = CheckPlan(max_bound=max_bound, state_caching=state_caching, limits=limits)
        return plan.strategy(strategy).run(
            self.space(obs=obs), limits=plan.limits, obs=obs
        )

    def find_bug(
        self, max_bound: Optional[int] = None, limits: Optional[SearchLimits] = None
    ) -> Optional[BugReport]:
        """ICB until the first (minimal-preemption) bug."""
        limits = (limits or SearchLimits()).with_stop_on_first_bug()
        return self.check(max_bound=max_bound, limits=limits).first_bug

    def dfs_with_delta_stack(
        self, max_states: Optional[int] = None
    ) -> Dict[str, Any]:
        """Classic ZING search: DFS + state cache + delta-packed stack.

        Returns statistics including the stack compression ratio, the
        quantity the delta-compression ablation benchmark reports.
        """
        space = self.space()
        visited: Set[Hashable] = set()
        stack_states = DeltaStack()
        max_stack_depth = 0

        root = space.initial_state()
        visited.add(space.fingerprint(root))
        bugs: List[BugReport] = []
        #: frames: (node, remaining thread choices)
        frames: List[Tuple[ZingNode, List[ThreadId]]] = [
            (root, list(space.enabled(root)))
        ]
        stack_states.push(flatten(_node_state_dict(root)))
        while frames:
            max_stack_depth = max(max_stack_depth, len(frames))
            node, choices = frames[-1]
            if not choices:
                frames.pop()
                stack_states.pop()
                continue
            tid = choices.pop(0)
            successor = space.execute(node, tid)
            bugs.extend(space.bugs(successor))
            fingerprint = space.fingerprint(successor)
            if fingerprint in visited:
                continue
            visited.add(fingerprint)
            if max_states is not None and len(visited) >= max_states:
                break
            if not space.is_terminal(successor):
                frames.append((successor, list(space.enabled(successor))))
                stack_states.push(flatten(_node_state_dict(successor)))
        return {
            "visited_states": len(visited),
            "bugs": bugs,
            "max_stack_depth": max_stack_depth,
            "stack_compression_ratio": stack_states.compression_ratio,
        }
