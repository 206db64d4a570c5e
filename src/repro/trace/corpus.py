"""A directory of witness traces as a regression corpus.

The workflow the paper's Section 1 promises -- "the tester can debug
by replaying the execution" -- becomes a CI loop: every bug a checking
run finds is saved under a corpus directory (``check(trace_dir=...)``
or ``--trace-dir``), and ``corpus run`` replays every stored trace,
failing on any outcome other than ``REPRODUCED``.  A fixed bug shows
up as ``VANISHED`` (delete the trace and celebrate); a refactor that
silently changed the defect shows up as ``BUG_CHANGED`` or a
``SCHEDULE_MISMATCH`` flavor instead of a green build.

Programs are re-resolved from each trace's recorded ``spec`` (a CLI
spec such as ``wsq:pop-race`` or ``package.module:factory``), falling
back to matching the recorded display name against the built-in
registry; a custom ``resolve`` callable overrides both.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

from ..core.execution import ExecutionConfig
from ..core.program import Program
from ..errors import ReproError
from .format import TRACE_SUFFIX, TraceFormatError, TraceRecord
from .replay import ReplayOutcome, ReplayReport, replay_trace

Resolver = Callable[[TraceRecord], Program]


def resolve_trace_program(trace: TraceRecord) -> Program:
    """Default resolver: recorded spec first, then built-in name match.

    Raises :class:`~repro.errors.ReproError` when nothing matches (the
    spec's own failure, if one was recorded); the corpus runner
    converts that into a per-trace failure rather than aborting the
    whole run.
    """
    from ..programs import find_builtin_by_name, resolve_spec

    failure: Optional[ReproError] = None
    if trace.spec is not None:
        try:
            return resolve_spec(trace.spec)
        except ReproError as exc:
            failure = exc
    program = find_builtin_by_name(trace.program.name)
    if program is not None:
        return program
    raise failure or ReproError(
        f"cannot resolve program for trace of {trace.program.name!r}; "
        "no spec recorded and no built-in has that name"
    )


@dataclass
class CorpusEntry:
    """One trace's fate in a corpus run."""

    path: pathlib.Path
    trace: Optional[TraceRecord] = None
    report: Optional[ReplayReport] = None
    #: Load/resolve failure, when the trace never reached replay.
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.report is not None and self.report.reproduced

    def describe(self) -> str:
        if self.error is not None:
            return f"ERROR      {self.path.name}: {self.error}"
        assert self.report is not None
        status = str(self.report.outcome).upper().replace("-", "_")
        detail = ""
        if self.report.mismatch is not None:
            detail = f" ({self.report.mismatch.describe()})"
        elif (
            self.report.outcome is ReplayOutcome.BUG_CHANGED
            and self.report.bug is not None
        ):
            detail = f" (observed {self.report.bug})"
        return f"{status:<10} {self.path.name}{detail}"


@dataclass
class CorpusReport:
    """Aggregate outcome of replaying a whole corpus."""

    root: pathlib.Path
    entries: List[CorpusEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    @property
    def failures(self) -> List[CorpusEntry]:
        return [entry for entry in self.entries if not entry.ok]

    def summary(self) -> str:
        lines = [
            f"corpus {self.root}: {len(self.entries)} trace(s), "
            f"{len(self.failures)} failure(s)"
        ]
        lines.extend(entry.describe() for entry in self.entries)
        return "\n".join(lines)


class TraceCorpus:
    """Save, enumerate and re-run witness traces under one directory."""

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)

    # -- writing ------------------------------------------------------------

    def save(self, trace: TraceRecord) -> pathlib.Path:
        """Persist a trace under its content-addressed default name.

        The filename is derived from the witness identity, so saving
        the same bug twice (e.g. re-streamed after a worker retry, or
        found again by a later run) overwrites instead of duplicating.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        return trace.save(self.root / trace.default_filename())

    # -- reading ------------------------------------------------------------

    def paths(self) -> List[pathlib.Path]:
        """Every trace file in the corpus, in deterministic order."""
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.iterdir() if p.name.endswith(TRACE_SUFFIX))

    def load_all(self) -> List[TraceRecord]:
        """Load every trace, raising on the first malformed file."""
        return [TraceRecord.load(path) for path in self.paths()]

    def matching(self, program: Program) -> List[tuple]:
        """``(path, trace)`` pairs recorded for ``program``.

        Matches on the full :class:`~repro.trace.format.ProgramFingerprint`
        (display name plus thread-structure hash), so a same-named
        program whose thread layout changed is not offered for replay.
        Malformed trace files are skipped -- callers use this as an
        opportunistic fast path (see
        :meth:`repro.service.cache.ResultCache.corpus_fastpath`), not
        as validation.
        """
        from .format import ProgramFingerprint

        wanted = ProgramFingerprint.of(program)
        found: List[tuple] = []
        for path in self.paths():
            try:
                trace = TraceRecord.load(path)
            except TraceFormatError:
                continue
            if trace.program == wanted:
                found.append((path, trace))
        return found

    def __len__(self) -> int:
        return len(self.paths())

    # -- running ------------------------------------------------------------

    def run(
        self,
        resolve: Optional[Resolver] = None,
        config: Optional[ExecutionConfig] = None,
    ) -> CorpusReport:
        """Replay every stored trace; any non-``REPRODUCED`` outcome
        (or unloadable/unresolvable trace) is a failure.

        ``config`` overrides every trace's recorded config (rarely
        wanted); ``resolve`` overrides program resolution.
        """
        resolve = resolve or resolve_trace_program
        report = CorpusReport(root=self.root)
        for path in self.paths():
            entry = CorpusEntry(path=path)
            report.entries.append(entry)
            try:
                entry.trace = TraceRecord.load(path)
            except TraceFormatError as exc:
                entry.error = str(exc)
                continue
            try:
                program = resolve(entry.trace)
            except ReproError as exc:
                entry.error = str(exc)
                continue
            entry.report = replay_trace(entry.trace, program, config=config)
        return report
