"""Benchmark programs.

The six programs of the paper's evaluation (Table 1):

* :mod:`repro.programs.bluetooth` -- the Bluetooth PnP driver model
  (stop vs. worker race);
* :mod:`repro.programs.filesystem` -- the file-system model of
  Flanagan & Godefroid (inode/block allocation under fine-grained
  locks);
* :mod:`repro.programs.workstealqueue` -- the Cilk-style work-stealing
  deque over a bounded circular buffer, plus its three seeded bugs;
* :mod:`repro.programs.ape` -- an asynchronous processing environment
  (APE) model with four seeded bugs;
* :mod:`repro.programs.dryad` -- a Dryad-style channel library with
  the Figure 3 use-after-free and four more seeded bugs;
* :mod:`repro.programs.transaction_manager` -- the transaction manager
  as an explicit-state ZING model with three seeded bugs.

plus :mod:`repro.programs.toy` (racy counters, Dekker, Peterson,
producer/consumer, deadlocks -- the unit/property-test corpus) and
:mod:`repro.programs.classic` (Treiber stack, ticket lock, SPSC ring
buffer -- lock-free idioms with seeded publication bugs).
"""

import importlib
from typing import Any, Callable, Dict, Optional

from ..core.program import Program
from ..errors import ReproError

#: Spec -> bug kind (the ``BugKind`` value string) ICB is expected to
#: report for the deliberately buggy builtins.  Derived by actually
#: running ``find_bug`` on each; specs absent here are expected clean
#: (within practical bounds).  ``repro list --json`` and the service
#: tests consume this.
EXPECTED_BUGS: Dict[str, str] = {
    "ape:double-take": "uncaught-exception",
    "ape:early-return": "assertion",
    "ape:init-race": "assertion",
    "ape:stats-race": "assertion",
    "bluetooth": "assertion",
    "dryad:close-sem-race": "assertion",
    "dryad:double-free": "double-free",
    "dryad:missing-handler": "assertion",
    "dryad:refcount-race": "assertion",
    "dryad:use-after-free": "use-after-free",
    "toy:atomic-counter": "assertion",
    "toy:deadlock": "deadlock",
    "toy:racy-counter": "data-race",
    "toy:stats-assert": "assertion",
    "toy:stats-deadlock": "deadlock",
    "toy:stats-race": "data-race",
    "toy:uaf": "use-after-free",
    "wsq:pop-lost-restore": "assertion",
    "wsq:pop-race": "assertion",
    "wsq:steal-stale-tail": "assertion",
}
from . import (
    ape,
    bluetooth,
    classic,
    dryad,
    filesystem,
    toy,
    transaction_manager,
    workstealqueue,
)

__all__ = [
    "EXPECTED_BUGS",
    "ape",
    "bluetooth",
    "builtin_registry",
    "builtin_summaries",
    "classic",
    "dryad",
    "filesystem",
    "find_builtin_by_name",
    "import_factory",
    "resolve_builtin",
    "resolve_spec",
    "toy",
    "transaction_manager",
    "workstealqueue",
]


def builtin_registry() -> Dict[str, Callable[[], Program]]:
    """Spec -> factory for every built-in benchmark program.

    The specs are the names accepted by the CLI (``bluetooth``,
    ``wsq:pop-race``, ...) and recorded in persisted witness traces,
    so a trace found anywhere can be re-resolved to its program here.
    """
    registry: Dict[str, Callable[[], Program]] = {
        "bluetooth": lambda: bluetooth.bluetooth(buggy=True),
        "bluetooth:fixed": lambda: bluetooth.bluetooth(buggy=False),
        "filesystem": filesystem.filesystem,
        "wsq": workstealqueue.work_steal_queue,
        "ape": ape.ape,
        "dryad": lambda: dryad.dryad_channels(workers=2, data_items=1),
        "toy:racy-counter": toy.racy_counter,
        "toy:atomic-counter": toy.atomic_counter_assert,
        "toy:deadlock": toy.lock_order_deadlock,
        "toy:dekker": toy.dekker,
        "toy:peterson": toy.peterson,
        "toy:uaf": toy.use_after_free_toy,
        "toy:chain": toy.chain_program,
        "toy:stats-race": toy.stats_race,
        "toy:stats-assert": toy.stats_assert,
        "toy:stats-deadlock": toy.stats_deadlock,
    }
    for variant in workstealqueue.VARIANTS:
        registry[f"wsq:{variant}"] = (
            lambda v=variant: workstealqueue.work_steal_queue(variant=v)
        )
    for variant in ape.VARIANTS:
        registry[f"ape:{variant}"] = lambda v=variant: ape.ape(variant=v)
    for variant in dryad.VARIANTS:
        registry[f"dryad:{variant}"] = lambda v=variant: dryad.dryad_channels(
            variant=v, workers=2, data_items=1
        )
    return registry


def builtin_summaries() -> Dict[str, Dict[str, Any]]:
    """Machine-readable description of every built-in program.

    Instantiates each program once to count its declared threads; the
    expected-bug class comes from :data:`EXPECTED_BUGS`.  This is what
    ``repro list --json`` emits, so external drivers (the checking
    service, CI matrices) can enumerate the corpus without parsing
    human-oriented output.
    """
    summaries: Dict[str, Dict[str, Any]] = {}
    for spec, factory in builtin_registry().items():
        program = factory()
        _, thread_specs = program.instantiate()
        summaries[spec] = {
            "spec": spec,
            "name": program.name,
            "threads": len(thread_specs),
            "expected_bug": EXPECTED_BUGS.get(spec),
            "buggy": spec in EXPECTED_BUGS,
        }
    return summaries


def resolve_builtin(spec: str) -> Optional[Program]:
    """Build the built-in program registered under ``spec``, if any."""
    factory = builtin_registry().get(spec)
    return factory() if factory is not None else None


def import_factory(spec: str) -> Program:
    """Build a program from a ``module:factory`` spec."""
    module_name, _, factory_name = spec.partition(":")
    if not module_name or not factory_name:
        raise ReproError(f"expected module:factory, got {spec!r}")
    failed = f"cannot rebuild program from spec {spec!r}"
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ReproError(f"{failed}: cannot import module {module_name!r}: {exc}") from exc
    factory = getattr(module, factory_name, None)
    if factory is None:
        raise ReproError(
            f"{failed}: module {module_name!r} has no attribute {factory_name!r}"
        )
    try:
        program = factory()
    except Exception as exc:
        raise ReproError(f"{failed}: {exc}") from exc
    if not isinstance(program, Program):
        raise ReproError(f"spec {spec!r} did not produce a Program")
    return program


def resolve_spec(spec: str) -> Program:
    """Build the program a spec names: a built-in, else a
    ``package.module:factory``.  The CLI, the checking service and the
    trace corpus all resolve specs here."""
    program = resolve_builtin(spec)
    if program is not None:
        return program
    if ":" in spec and "." in spec.split(":", 1)[0]:
        return import_factory(spec)
    raise ReproError(
        f"unknown program {spec!r}; run `python -m repro list` for the "
        "built-ins, or pass `package.module:factory`"
    )


def find_builtin_by_name(name: str) -> Optional[Program]:
    """Find a built-in program by its :attr:`Program.name`.

    Trace files record the program display name; when no explicit spec
    was recorded this recovers the program for replay (display names of
    the built-ins are unique).
    """
    for factory in builtin_registry().values():
        program = factory()
        if program.name == name:
            return program
    return None
