"""The in-vivo lint: shared state the checker cannot see.

Findings are *warnings about likely mistakes*, not bug reports: the
dynamic checkers stay the ground truth.  Codes:

``hidden-state``
    A plain attribute or module global is written by more than one
    checked thread without a ``Shared``/``Atomic`` wrapper -- invisible
    to race detection and state fingerprints (see ``docs/invivo.md``).
    Reported only when no thread summary is TOP: the writes of a TOP
    thread are unknown, and its folds may have named the wrong state.
``incomplete``
    A thread's summary degraded to TOP; the message carries the reason.
    The lint cannot vouch for a program it could not read.

Each finding carries a stable ``fingerprint`` so a committed baseline
file can distinguish known findings from regressions; ``repro lint``
exits nonzero only on non-baselined findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from .summary import ProgramSummary

__all__ = ["LintFinding", "lint_program", "load_baseline", "format_baseline"]


@dataclass(frozen=True)
class LintFinding:
    """One static finding about a program's shared state."""

    program: str
    code: str
    subject: str
    message: str

    @property
    def fingerprint(self) -> str:
        """A stable identity for baselining: program/code/subject."""
        return f"{self.program}:{self.code}:{self.subject}"

    def describe(self) -> str:
        return f"[{self.code}] {self.message}"


def lint_program(summary: ProgramSummary) -> Tuple[LintFinding, ...]:
    """All lint findings for one analyzed program, sorted."""
    program = summary.program
    findings: List[LintFinding] = [
        LintFinding(
            program=program,
            code="incomplete",
            subject=thread.label,
            message=(
                f"thread {thread.label!r} could not be analyzed: "
                f"{thread.top_reason}"
            ),
        )
        for thread in summary.threads
        if thread.top
    ]

    if not findings:
        writers: Dict[str, int] = {}
        for thread in summary.threads:
            for key in thread.hidden_writes:
                writers[key] = writers.get(key, 0) + 1
        for key in sorted(writers):
            if writers[key] < 2:
                continue
            findings.append(
                LintFinding(
                    program=program,
                    code="hidden-state",
                    subject=key,
                    message=(
                        f"plain state {key!r} is written by more than "
                        "one checked thread without a Shared/Atomic "
                        "wrapper; the checker cannot see these accesses"
                    ),
                )
            )

    return tuple(
        sorted(findings, key=lambda f: (f.code, f.subject, f.message))
    )


def load_baseline(text: str) -> Set[str]:
    """Parse a baseline file: one fingerprint per line, ``#`` comments."""
    out: Set[str] = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.add(line)
    return out


def format_baseline(findings: Iterable[LintFinding]) -> str:
    """Render findings as a baseline file body (sorted fingerprints)."""
    lines = sorted({f.fingerprint for f in findings})
    header = [
        "# repro lint baseline: known findings, one fingerprint per line.",
        "# Regenerate with: repro lint --module pkg.mod:factory "
        "--update-baseline <this file>",
    ]
    return "\n".join(header + lines) + "\n"
