"""Hypothesis strategies generating small well-formed programs.

The generator builds lock-disciplined programs: every data variable is
permanently associated with one mutex and only ever accessed while
holding it, so generated programs are race-free and deadlock-free by
construction (locks never nest).  This gives the property tests a
family of correct programs whose full state spaces are enumerable.

With ``bugs=True`` it also seeds defects whose minimal preemption
counts the differential oracle (``test_oracle.py``) checks against
brute-force enumeration: an assertion that a variable did not change
between two lock blocks (it fails when another thread writes it in
between), and nested acquisitions of two locks (a lock-order deadlock
when another thread nests them the other way round).  Both stay
race-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from hypothesis import strategies as st

from repro import Program, check


@dataclass(frozen=True)
class LockBlock:
    """acquire lock[i]; read/write var[i]; release lock[i]."""

    var: int
    write: bool


@dataclass(frozen=True)
class AtomicOp:
    """One interlocked add on atomic[i]."""

    var: int


@dataclass(frozen=True)
class CheckedRead:
    """Read var[i] in two lock blocks; assert it did not change."""

    var: int


@dataclass(frozen=True)
class NestedLocks:
    """acquire lock[outer]; acquire lock[inner]; release both."""

    outer: int
    inner: int


@dataclass(frozen=True)
class ProgramShape:
    """A deterministic description of a generated program."""

    n_vars: int
    n_atomics: int
    threads: Tuple[Tuple[object, ...], ...]

    @property
    def name(self) -> str:
        return f"gen-{len(self.threads)}t-{self.n_vars}v-{self.n_atomics}a"


def _ops(n_vars: int, n_atomics: int, bugs: bool = False):
    choices = []
    if bugs and n_vars:
        choices.append(st.builds(CheckedRead, var=st.integers(0, n_vars - 1)))
    if bugs and n_vars > 1:
        choices.append(
            st.integers(0, n_vars - 1).flatmap(
                lambda outer: st.builds(
                    NestedLocks,
                    outer=st.just(outer),
                    inner=st.integers(0, n_vars - 2).map(
                        lambda i: i + (i >= outer)
                    ),
                )
            )
        )
    if n_vars:
        choices.append(
            st.builds(
                LockBlock,
                var=st.integers(0, n_vars - 1),
                write=st.booleans(),
            )
        )
    if n_atomics:
        choices.append(st.builds(AtomicOp, var=st.integers(0, n_atomics - 1)))
    return st.one_of(choices)


@st.composite
def program_shapes(
    draw,
    max_threads: int = 3,
    max_ops: int = 3,
    max_vars: int = 2,
    max_atomics: int = 2,
    bugs: bool = False,
):
    """Draw a :class:`ProgramShape` (with seeded defects if ``bugs``)."""
    n_vars = draw(st.integers(1 if bugs else 0, max_vars))
    n_atomics = draw(st.integers(0 if n_vars else 1, max_atomics))
    n_threads = draw(st.integers(2, max_threads))
    ops = _ops(n_vars, n_atomics, bugs)
    threads = tuple(
        tuple(draw(st.lists(ops, min_size=1, max_size=max_ops)))
        for _ in range(n_threads)
    )
    return ProgramShape(n_vars=n_vars, n_atomics=n_atomics, threads=threads)


def build_program(shape: ProgramShape) -> Program:
    """Materialize a generated shape as a runnable Program."""

    def setup(w):
        locks = [w.mutex(f"lock{i}") for i in range(shape.n_vars)]
        data = [w.var(f"var{i}", 0) for i in range(shape.n_vars)]
        atomics = [w.atomic(f"atomic{i}", 0) for i in range(shape.n_atomics)]

        def body(ops):
            def thread():
                for op in ops:
                    if isinstance(op, LockBlock):
                        yield locks[op.var].acquire()
                        value = yield data[op.var].read()
                        if op.write:
                            yield data[op.var].write(value + 1)
                        yield locks[op.var].release()
                    elif isinstance(op, CheckedRead):
                        lock, var = locks[op.var], data[op.var]
                        yield lock.acquire()
                        before = yield var.read()
                        yield lock.release()
                        yield lock.acquire()
                        after = yield var.read()
                        yield lock.release()
                        check(before == after, f"var{op.var} changed")
                    elif isinstance(op, NestedLocks):
                        yield locks[op.outer].acquire()
                        yield locks[op.inner].acquire()
                        yield locks[op.inner].release()
                        yield locks[op.outer].release()
                    else:
                        yield atomics[op.var].add(1)

            return thread

        return {f"t{i}": body(ops) for i, ops in enumerate(shape.threads)}

    return Program(shape.name, setup)
