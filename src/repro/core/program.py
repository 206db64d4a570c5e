"""Program definitions.

A :class:`Program` is a *recipe* for building one execution: a setup
function that, given a fresh :class:`~repro.core.world.World`, creates
all initial shared state and returns the initial threads.  Every
:class:`~repro.core.execution.Execution` runs the recipe once, so the
stateless checker can replay any schedule deterministically.  To
revisit a state it mostly rewinds the execution it holds instead
(``Execution.rewind``): the threads that ran after the rewound-to step
get fresh generators, fed the values they had been sent.  That is
sound because a thread's local state is a function of the values
delivered to it, so thread bodies must not mutate Python state that
setup created.

Setup functions return either a mapping from thread label to thread
body (a generator function taking no arguments, typically a closure
over the shared objects) or an iterable of ``(label, body)`` or
``(label, body, args)`` tuples::

    def setup(w):
        counter = w.var("counter", 0)
        lock = w.mutex("lock")

        def incrementer():
            yield lock.acquire()
            v = yield counter.read()
            yield counter.write(v + 1)
            yield lock.release()

        return {"a": incrementer, "b": incrementer}

    program = Program("two-increments", setup)
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Iterable, List, Mapping, Tuple, Union

from ..errors import ProgramDefinitionError
from .world import World

ThreadBody = Callable[..., Any]
ThreadSpec = Tuple[str, ThreadBody, Tuple[Any, ...]]
SetupResult = Union[
    Mapping[str, ThreadBody],
    Iterable[Union[Tuple[str, ThreadBody], ThreadSpec]],
]


def _normalize_threads(result: SetupResult) -> List[ThreadSpec]:
    """Canonicalize a setup function's return value into specs."""
    specs: List[ThreadSpec] = []
    if isinstance(result, Mapping):
        items: Iterable[Any] = [(label, body) for label, body in result.items()]
    else:
        items = result
    for item in items:
        if not isinstance(item, tuple) or len(item) not in (2, 3):
            raise ProgramDefinitionError(
                "setup must return a mapping {label: body} or tuples "
                f"(label, body[, args]); got {item!r}"
            )
        label, body = item[0], item[1]
        args = tuple(item[2]) if len(item) == 3 else ()
        if not isinstance(label, str) or not label:
            raise ProgramDefinitionError(f"thread label must be a non-empty string, got {label!r}")
        if not callable(body):
            raise ProgramDefinitionError(f"thread body for {label!r} is not callable")
        specs.append((label, body, args))
    if not specs:
        raise ProgramDefinitionError("a program needs at least one thread")
    labels = [label for label, _, _ in specs]
    if len(set(labels)) != len(labels):
        raise ProgramDefinitionError(f"duplicate thread labels in {labels}")
    return specs


class Program:
    """A closed multithreaded program under test.

    Attributes:
        name: display name used in reports and experiment tables.
        setup: function ``World -> threads`` building fresh shared
            state and the initial threads.
        expected_bugs: optional documentation of the defects seeded in
            this program (used by the Table 2 experiment harness).
    """

    #: Whether an execution can be rewound by fast-forwarding fresh
    #: thread generators (``Execution.rewind``) instead of replayed.
    restorable = True

    def __init__(
        self,
        name: str,
        setup: Callable[[World], SetupResult],
        expected_bugs: Tuple[str, ...] = (),
    ) -> None:
        if not callable(setup):
            raise ProgramDefinitionError("setup must be callable")
        self.name = name
        self.setup = setup
        self.expected_bugs = expected_bugs

    def instantiate(self) -> Tuple[World, List[ThreadSpec]]:
        """Build a fresh world and the initial thread specs."""
        world = World()
        result = self.setup(world)
        if inspect.isgenerator(result):
            raise ProgramDefinitionError(
                f"setup of {self.name!r} is a generator; it must be a plain "
                "function returning the initial threads"
            )
        return world, _normalize_threads(result)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Program {self.name!r}>"


def check(condition: Any, message: str = "assertion failed") -> None:
    """Assert a property inside a thread body.

    Raises :class:`~repro.errors.ProgramAssertionError`, which the
    engine converts into an ASSERTION bug report carrying the witness
    schedule and its preemption count.
    """
    from ..errors import ProgramAssertionError

    if not condition:
        raise ProgramAssertionError(message)
