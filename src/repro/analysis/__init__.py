"""repro.analysis: static analysis over effect programs.

The subsystem has three layers (see ``docs/analysis.md``):

1. :mod:`repro.analysis.summary` -- per-thread access summaries via
   abstract interpretation of the thread-body ASTs, with a sound TOP
   fallback for anything unresolvable.
2. :mod:`repro.analysis.lockgraph` / :mod:`repro.analysis.racecand` /
   :mod:`repro.analysis.lint` -- consumers of the summaries: the lock
   acquisition-order graph with potential-deadlock cycles, Eraser-style
   race candidates, and DSL lint findings.
3. :class:`ProgramAnalysis` -- the facade behind ``repro analyze`` and
   ``repro lint``: one program's summaries, lock graph, race
   candidates and lint findings, with a human-readable report.

Everything is computed once per program, without running it.  The
analysis reports what the dynamic checker cannot (potential deadlocks
and races on paths no bounded search reaches, DSL anomalies); it does
not steer the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.program import Program
from .lint import LintFinding, format_baseline, lint_program, load_baseline
from .lockgraph import LockCycle, LockOrderGraph
from .racecand import RaceCandidate, race_candidates
from .summary import ProgramSummary, StaticAccess, ThreadSummary, analyze_program

__all__ = [
    "LintFinding",
    "LockCycle",
    "LockOrderGraph",
    "ProgramAnalysis",
    "ProgramSummary",
    "RaceCandidate",
    "StaticAccess",
    "ThreadSummary",
    "analyze",
    "analyze_program",
    "format_baseline",
    "lint_program",
    "load_baseline",
    "race_candidates",
]


@dataclass(frozen=True)
class ProgramAnalysis:
    """Everything the static pass knows about one program."""

    summary: ProgramSummary
    graph: LockOrderGraph
    candidates: Tuple[RaceCandidate, ...]
    findings: Tuple[LintFinding, ...]

    @classmethod
    def of(cls, program: Program) -> "ProgramAnalysis":
        summary = analyze_program(program)
        graph = LockOrderGraph.from_summary(summary)
        candidates = race_candidates(summary)
        findings = lint_program(summary, graph)
        return cls(
            summary=summary,
            graph=graph,
            candidates=candidates,
            findings=findings,
        )

    def render(self) -> str:
        """A human-readable report for ``repro analyze``."""
        lines: List[str] = []
        summary = self.summary
        lines.append(f"program: {summary.program}")
        lines.append(
            f"shared objects: {len(summary.variables)} "
            f"({sum(1 for c in summary.variables.values() if c in ('data', 'field'))} data)"
        )
        lines.append("")
        lines.append("thread summaries:")
        for thread in summary.threads:
            flavor = " (multi-instance)" if thread.multi_instance else ""
            if thread.top:
                lines.append(
                    f"  {thread.label}{flavor}: TOP -- {thread.top_reason}"
                )
                continue
            touched = ", ".join(sorted(thread.touched)) or "(nothing)"
            lines.append(f"  {thread.label}{flavor}: touches {touched}")
            if thread.exit_unreleased:
                held = ", ".join(sorted(thread.exit_unreleased))
                lines.append(f"    holds at exit: {held}")
        lines.append("")
        lines.append(f"lock-order edges: {len(self.graph.edges)}")
        for held, acquired in sorted(self.graph.edges):
            who = ", ".join(self.graph.contributors.get((held, acquired), ()))
            lines.append(f"  {held} -> {acquired}  [{who}]")
        cycles = self.graph.cycles()
        if cycles:
            lines.append("lock cycles:")
            for cycle in cycles:
                lines.append(f"  {cycle.describe()}")
        lines.append("")
        lines.append(f"race candidates: {len(self.candidates)}")
        for candidate in self.candidates:
            lines.append(f"  {candidate.describe()}")
        if self.findings:
            lines.append("")
            lines.append(f"lint findings: {len(self.findings)}")
            for finding in self.findings:
                lines.append(f"  {finding.describe()}")
        return "\n".join(lines)


def analyze(program: Program) -> ProgramAnalysis:
    """Convenience wrapper: ``ProgramAnalysis.of(program)``."""
    return ProgramAnalysis.of(program)
