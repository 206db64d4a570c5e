"""The persistent witness-trace format (``*.trace.json``).

A trace is the durable form of a :class:`~repro.errors.BugReport`: it
captures everything needed to re-execute the witness in a different
process, on a different machine, or weeks later -- the program's
fingerprint (display name plus a hash of its initial thread structure),
the :class:`~repro.core.execution.ExecutionConfig` knobs the bug was
found under, the witness schedule itself, its preemption count, and
the identity of the bug the schedule is expected to reproduce.

The on-disk representation is versioned JSON over the shared codec of
:mod:`repro.persist`.  Thread identities are stored *losslessly*: a
table of distinct ``(path, label)`` pairs plus a schedule of indices
into that table, rebuilt on load through
:meth:`~repro.core.thread.ThreadId.from_path` (the dotted string
rendering used by reports is display-only and one-way).  Loading
validates the schema strictly -- a malformed or truncated trace raises
:class:`TraceFormatError` with the offending key, never a bare
``KeyError``/``TypeError`` from deep inside the replay machinery.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import re
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from ..core.execution import ExecutionConfig, RaceDetection, SchedulingPolicy
from ..core.program import Program
from ..core.thread import ThreadId
from ..errors import BugKind, BugReport, ReproError
from ..persist import Decoder, ThreadTable, write_atomic

#: Identifies a file as one of ours regardless of extension.
FORMAT_NAME = "repro-trace"
#: Bumped on every incompatible schema change; loaders reject unknown
#: versions instead of guessing.
FORMAT_VERSION = 1
#: Canonical file suffix; the corpus only picks up files ending in it.
TRACE_SUFFIX = ".trace.json"


class TraceFormatError(ReproError):
    """A trace file violates the schema (or uses an unknown version)."""


_DECODE = Decoder(TraceFormatError)


def _path_tuple(value: Any, where: str) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise TraceFormatError(f"{where}: thread path must be a non-empty list")
    try:
        return ThreadId.from_path(value).path
    except ValueError as exc:
        raise TraceFormatError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class ProgramFingerprint:
    """Identifies which program a trace belongs to.

    ``structure`` hashes the initial thread structure (the ordered
    labels the setup function declares), so replaying a trace against
    a program whose thread layout changed is detected before a single
    step runs, independently of the display name.
    """

    name: str
    structure: str

    @classmethod
    def of(cls, program: Program) -> "ProgramFingerprint":
        _, specs = program.instantiate()
        payload = json.dumps([label for label, _, _ in specs], ensure_ascii=True)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
        return cls(name=program.name, structure=digest)


@dataclass(frozen=True)
class ExpectedBug:
    """The bug identity a trace's schedule is expected to reproduce."""

    kind: BugKind
    message: str
    #: Path of the triggering thread (``None`` for whole-program
    #: conditions such as deadlock).
    thread: Optional[Tuple[int, ...]]
    step_index: int

    @classmethod
    def of(cls, bug: BugReport) -> "ExpectedBug":
        return cls(
            kind=bug.kind,
            message=bug.message,
            thread=bug.thread.path if bug.thread is not None else None,
            step_index=bug.step_index,
        )

    def matches(self, bug: BugReport) -> bool:
        """Same defect (the dedup signature), any witness."""
        thread_path = bug.thread.path if bug.thread is not None else None
        return (
            bug.kind is self.kind
            and bug.message == self.message
            and thread_path == self.thread
        )


#: ExecutionConfig fields persisted in a trace.  ``monitors`` is
#: deliberately absent: monitor factories are code, not data; replay
#: uses whatever monitors the caller's config supplies.
_CONFIG_SCALARS = (
    "strict_races",
    "races_are_fatal",
    "deadlock_is_bug",
    "max_accesses_per_step",
    "free_conflicts",
)


def config_to_json(config: ExecutionConfig) -> Dict[str, Any]:
    """Serialize the replay-relevant knobs of an execution config."""
    data: Dict[str, Any] = {
        "policy": config.policy.value,
        "race_detection": config.race_detection.value,
    }
    for name in _CONFIG_SCALARS:
        data[name] = getattr(config, name)
    return data


def config_from_json(data: Dict[str, Any]) -> ExecutionConfig:
    """Rebuild an execution config saved by :func:`config_to_json`."""
    where = "config"
    try:
        policy = SchedulingPolicy(_DECODE.require(data, "policy", str, where))
        race_detection = RaceDetection(_DECODE.require(data, "race_detection", str, where))
    except ValueError as exc:
        raise TraceFormatError(f"{where}: {exc}") from exc
    kwargs: Dict[str, Any] = {}
    for name in _CONFIG_SCALARS:
        expected = int if name == "max_accesses_per_step" else bool
        kwargs[name] = _DECODE.require(data, name, expected, where)
    return ExecutionConfig(policy=policy, race_detection=race_detection, **kwargs)


@dataclass(frozen=True)
class TraceRecord:
    """One persisted witness: program + config + schedule + expected bug.

    Immutable; minimization produces a *new* record via
    :meth:`with_witness`.  ``spec`` optionally records how to rebuild
    the program (a CLI spec such as ``wsq:pop-race`` or
    ``package.module:factory``) so a corpus can re-resolve it; traces
    saved through the Python API may leave it unset, in which case the
    corpus falls back to matching the fingerprint's display name
    against the built-in registry.
    """

    program: ProgramFingerprint
    config: ExecutionConfig
    schedule: Tuple[ThreadId, ...]
    preemptions: int
    bug: ExpectedBug
    spec: Optional[str] = None
    minimized: bool = False

    # -- construction -------------------------------------------------------

    @classmethod
    def from_bug(
        cls,
        program: Program,
        config: Optional[ExecutionConfig],
        bug: BugReport,
        spec: Optional[str] = None,
        minimized: bool = False,
    ) -> "TraceRecord":
        """Capture a found bug as a durable trace."""
        return cls(
            program=ProgramFingerprint.of(program),
            config=config or ExecutionConfig(),
            schedule=tuple(bug.schedule),
            preemptions=bug.preemptions,
            bug=ExpectedBug.of(bug),
            spec=spec,
            minimized=minimized,
        )

    def with_witness(self, bug: BugReport, minimized: bool = True) -> "TraceRecord":
        """A copy carrying a different (e.g. minimized) witness of the
        same defect; the expected identity follows the new schedule."""
        return dataclasses.replace(
            self,
            schedule=tuple(bug.schedule),
            preemptions=bug.preemptions,
            bug=ExpectedBug.of(bug),
            minimized=minimized,
        )

    # -- identity -----------------------------------------------------------

    @property
    def identity(self) -> Tuple[Any, ...]:
        """Mirrors :attr:`repro.errors.BugReport.identity` for the
        expected bug, so round-trip tests can compare them directly."""
        return (self.bug.kind, tuple(t.path for t in self.schedule))

    def digest(self) -> str:
        """Stable content hash of the witness; used in filenames, so
        re-saving the same bug overwrites rather than duplicates."""
        payload = json.dumps(
            [self.program.name, self.bug.kind.value, [list(t.path) for t in self.schedule]]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:10]

    def default_filename(self) -> str:
        safe = re.sub(r"[^A-Za-z0-9._-]+", "-", self.program.name)
        return f"{safe}-{self.bug.kind.value}-{self.digest()}{TRACE_SUFFIX}"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        table = ThreadTable()
        schedule = table.schedule(self.schedule)  # fills the table
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "program": {"name": self.program.name, "structure": self.program.structure},
            "config": config_to_json(self.config),
            "threads": table.to_json(),
            "schedule": schedule,
            "preemptions": self.preemptions,
            "bug": {
                "kind": self.bug.kind.value,
                "message": self.bug.message,
                "thread": list(self.bug.thread) if self.bug.thread is not None else None,
                "step_index": self.bug.step_index,
            },
            "spec": self.spec,
            "minimized": self.minimized,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the trace to ``path`` (a file, or a directory in which
        the :meth:`default_filename` is used)."""
        target = pathlib.Path(path)
        if target.is_dir():
            target = target / self.default_filename()
        write_atomic(target, self.dumps() + "\n")
        return target

    @classmethod
    def from_json(cls, data: Any) -> "TraceRecord":
        if not isinstance(data, dict):
            raise TraceFormatError(f"trace must be a JSON object, got {type(data).__name__}")
        where = "trace"
        fmt = _DECODE.require(data, "format", str, where)
        if fmt != FORMAT_NAME:
            raise TraceFormatError(f"not a {FORMAT_NAME} file (format={fmt!r})")
        version = _DECODE.require(data, "version", int, where)
        if version != FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported trace version {version} (this build reads {FORMAT_VERSION})"
            )
        prog = _DECODE.require(data, "program", dict, where)
        fingerprint = ProgramFingerprint(
            name=_DECODE.require(prog, "name", str, "program"),
            structure=_DECODE.require(prog, "structure", str, "program"),
        )
        config = config_from_json(_DECODE.require(data, "config", dict, where))
        threads = _DECODE.threads(data, where)
        schedule = _DECODE.schedule(
            _DECODE.require(data, "schedule", list, where), threads, "schedule"
        )
        preemptions = _DECODE.require(data, "preemptions", int, where)
        if preemptions < 0:
            raise TraceFormatError("preemptions must be non-negative")

        bug_raw = _DECODE.require(data, "bug", dict, where)
        thread_raw = bug_raw.get("thread")
        bug = ExpectedBug(
            kind=_DECODE.kind(bug_raw, "bug"),
            message=_DECODE.require(bug_raw, "message", str, "bug"),
            thread=_path_tuple(thread_raw, "bug.thread") if thread_raw is not None else None,
            step_index=_DECODE.require(bug_raw, "step_index", int, "bug"),
        )

        spec = data.get("spec")
        if spec is not None and not isinstance(spec, str):
            raise TraceFormatError("spec must be a string or null")
        minimized = data.get("minimized", False)
        if not isinstance(minimized, bool):
            raise TraceFormatError("minimized must be a boolean")

        return cls(
            program=fingerprint,
            config=config,
            schedule=schedule,
            preemptions=preemptions,
            bug=bug,
            spec=spec,
            minimized=minimized,
        )

    @classmethod
    def loads(cls, text: str) -> "TraceRecord":
        return cls.from_json(_DECODE.parse_json(text, "trace"))

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "TraceRecord":
        return cls.from_json(_DECODE.read_json(pathlib.Path(path), "trace"))

    # -- reporting ----------------------------------------------------------

    def summary(self) -> str:
        tag = " (minimized)" if self.minimized else ""
        return (
            f"trace of {self.program.name}{tag}: [{self.bug.kind}] "
            f"{self.bug.message} -- {len(self.schedule)} step(s), "
            f"{self.preemptions} preemption(s)"
        )


def sequence_to_schedule(paths: Sequence[Sequence[int]]) -> Tuple[ThreadId, ...]:
    """Convenience for tests: build a schedule from raw path tuples."""
    return tuple(ThreadId.from_path(p) for p in paths)
