"""In-vivo programs for the static-analysis tests.

They live outside ``examples/invivo`` on purpose: the examples feed
the committed lint baseline, while these exist to exercise the
analyzer's edges.
"""

from __future__ import annotations

from repro.invivo import InvivoProgram, Shared


def opaque_program() -> InvivoProgram:
    """A racy program whose thread bodies defeat the source analyzer.

    The bodies are compiled from a source string via ``exec``, so
    ``inspect.getsource`` cannot recover their ASTs and every summary
    must fall back to TOP -- an ``incomplete`` lint finding per thread
    -- while the dynamic checker still finds the race.
    """

    source = (
        "def _make(counter):\n"
        "    def worker():\n"
        "        counter.set(counter.get() + 1)\n"
        "    return worker\n"
    )
    namespace: dict = {}
    exec(source, namespace)  # noqa: S102 - deliberate, to defeat getsource

    def setup():
        counter = Shared(0, name="counter")
        worker = namespace["_make"](counter)
        return {"t0": worker, "t1": worker}

    return InvivoProgram("invivo-opaque", setup)


def trivial_program() -> InvivoProgram:
    """One thread writing one ``Shared`` cell."""

    def setup():
        value = Shared(0, name="value")

        def worker():
            value.set(1)

        return {"t": worker}

    return InvivoProgram("invivo-trivial", setup)
