"""repro.analysis: the in-vivo hidden-state lint.

Under the paper's sync-only policy the race detector and the bounded
search report what happens to the shared objects the engine knows.
What the engine cannot see is shared state outside the adapters --
plain attributes, class attributes, closure variables and module
globals of real ``threading`` code.  :mod:`repro.analysis.lint` finds
it the way CHESS checks everything else, dynamically: it watches a
bounded ICB search of the program and reports the plain state that
more than one checked thread wrote (``hidden-state``), with the
baseline file behind ``repro lint --module``.
"""

from __future__ import annotations

from .lint import LINT_BOUND, LintFinding, format_baseline, lint_program, load_baseline

__all__ = [
    "LINT_BOUND",
    "LintFinding",
    "format_baseline",
    "lint_program",
    "load_baseline",
]
