"""repro.analysis: the in-vivo hidden-state lint.

Under the paper's sync-only policy the race detector and the bounded
search already report what a static pass over effect programs could:
lock cycles are deadlocks ICB finds, and race candidates either are
races it reports or never happen.  What the engine cannot see is
shared state outside the adapters -- plain attributes and module
globals of real ``threading`` code.  So the analysis reads in-vivo
programs only:

1. :mod:`repro.analysis.summary` -- per-thread access summaries via
   abstract interpretation of the thread callables' source, with a
   loud TOP fallback (a recorded reason) for anything unresolvable.
2. :mod:`repro.analysis.lint` -- the ``hidden-state`` findings over
   those summaries, an ``incomplete`` finding per TOP thread, and the
   baseline file behind ``repro lint --module``.

The access pairs of a summary feed no finding; they stay as the
evidence, checked dynamically by the in-vivo oracles, that the walk
reaches every path a thread can take.
"""

from __future__ import annotations

from .lint import LintFinding, format_baseline, lint_program, load_baseline
from .summary import ProgramSummary, ThreadSummary, analyze_program

__all__ = [
    "LintFinding",
    "ProgramSummary",
    "ThreadSummary",
    "analyze_program",
    "format_baseline",
    "lint_program",
    "load_baseline",
]
