"""In-vivo programs for the hidden-state lint tests.

They live outside ``examples/invivo`` on purpose: the examples feed
the committed lint baseline, while these exist to exercise the
watcher's edges.
"""

from __future__ import annotations

import functools

from repro.invivo import InvivoProgram, Shared

#: A module global both threads of :func:`global_program` bump.
hits = 0


class Box:
    """A plain object: its attributes are invisible to the checker."""

    def __init__(self) -> None:
        self.value = 0
        self.entries: list = []


class Tally:
    """Keeps its count in a class attribute."""

    count = 0


def _exec_compiled(source: str) -> dict:
    """The namespace of ``source`` run by ``exec``: functions there
    have no source file, and the lint must not need one."""
    namespace: dict = {}
    exec(source, namespace)  # noqa: S102 - deliberate: no source file
    return namespace


def opaque_program() -> InvivoProgram:
    """Thread bodies compiled by ``exec`` that share only a ``Shared``
    cell: the checker sees every access, so the lint reports nothing
    while the dynamic checker finds the race."""

    namespace = _exec_compiled(
        "def _make(counter):\n"
        "    def worker():\n"
        "        counter.set(counter.get() + 1)\n"
        "    return worker\n"
    )

    def setup():
        counter = Shared(0, name="counter")
        worker = namespace["_make"](counter)
        return {"t0": worker, "t1": worker}

    return InvivoProgram("invivo-opaque", setup)


def opaque_plain_program() -> InvivoProgram:
    """Thread bodies compiled by ``exec`` that both write a plain
    attribute."""

    namespace = _exec_compiled(
        "def _make(box):\n"
        "    def worker():\n"
        "        box.value += 1\n"
        "    return worker\n"
    )

    def setup():
        worker = namespace["_make"](Box())
        return {"t0": worker, "t1": worker}

    return InvivoProgram("invivo-opaque-plain", setup)


def global_program() -> InvivoProgram:
    """Two threads rebinding a module global."""

    def bump():
        global hits
        hits += 1

    def setup():
        return {"t0": bump, "t1": bump}

    return InvivoProgram("invivo-global", setup)


def class_attribute_program() -> InvivoProgram:
    """Two threads bumping a class attribute."""

    def bump():
        Tally.count += 1

    def setup():
        return {"t0": bump, "t1": bump}

    return InvivoProgram("invivo-class-attribute", setup)


def _bump_hits(box: Box) -> None:
    global hits
    hits += 1


class Bumper:
    """A callable object as a thread body."""

    def __call__(self) -> None:
        global hits
        hits += 1


def partial_program() -> InvivoProgram:
    """``functools.partial`` thread bodies rebinding the module global of
    :func:`global_program`."""

    def setup():
        bump = functools.partial(_bump_hits, Box())
        return {"t0": bump, "t1": bump}

    return InvivoProgram("invivo-partial", setup)


def callable_object_program() -> InvivoProgram:
    """Callable-object thread bodies rebinding the same global."""

    def setup():
        return {"t0": Bumper(), "t1": Bumper()}

    return InvivoProgram("invivo-callable-object", setup)


def nonlocal_program() -> InvivoProgram:
    """Two threads rebinding a variable of ``setup``'s scope."""

    def setup():
        count = 0

        def bump():
            nonlocal count
            count += 1

        return {"t0": bump, "t1": bump}

    return InvivoProgram("invivo-nonlocal", setup)


def append_program() -> InvivoProgram:
    """Two threads appending to a list held by a plain attribute."""

    def setup():
        box = Box()

        def worker():
            box.entries.append(1)

        return {"t0": worker, "t1": worker}

    return InvivoProgram("invivo-append", setup)


def publish_program() -> InvivoProgram:
    """Two threads each build a ``Box`` and publish it on a shared one."""

    def setup():
        box = Box()

        def worker():
            box.child = Box()

        return {"t0": worker, "t1": worker}

    return InvivoProgram("invivo-publish", setup)


def setup_write_program() -> InvivoProgram:
    """``setup`` writes a plain attribute that the threads only read."""

    def setup():
        box = Box()
        box.value = 1

        def reader():
            assert box.value == 1

        return {"t0": reader, "t1": reader}

    return InvivoProgram("invivo-setup-write", setup)
