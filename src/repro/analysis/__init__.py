"""Static analysis and runtime sanitization for the simulator.

Two halves:

- :mod:`repro.analysis.lint` — AST-based repo-specific lint rules
  (REP001–REP008 and REP011–REP013; REP004 is the one project-wide
  rule) runnable as ``python -m repro.analysis``;
- :mod:`repro.analysis.sanitizer` — "MemSan", a runtime invariant
  checker for the simulated memory subsystem, enabled with
  ``REPRO_SANITIZE=1`` or ``--sanitize``.
"""

from __future__ import annotations

from .baseline import apply_baseline, load_baseline, render_baseline
from .findings import ALL_RULES, RULE_SUMMARIES, Finding
from .lint import lint_paths, lint_text
from .sanitizer import (
    MemSanitizer,
    NullSanitizer,
    make_sanitizer,
    sanitizer_enabled,
    set_sanitize,
)

__all__ = [
    "ALL_RULES",
    "Finding",
    "MemSanitizer",
    "NullSanitizer",
    "RULE_SUMMARIES",
    "apply_baseline",
    "lint_paths",
    "lint_text",
    "load_baseline",
    "make_sanitizer",
    "render_baseline",
    "sanitizer_enabled",
    "set_sanitize",
]
