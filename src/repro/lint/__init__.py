"""Repo-specific static analysis: the ``nondeterminism-taint`` dataflow rule.

Same ``(scenario, seed)``, same bytes: a value born from bare
randomness, a wall-clock read, set iteration order or ``hash()`` must
not reach the event loop, codec state or a packet payload.  Tests see
one process; this rule sees every path.  Every ``src/repro`` module is
parsed and walked by :mod:`repro.lint.rules`, and CI fails on any
finding.  The per-line invariants are checks in
``tests/test_static_checks.py``; ``docs/static_analysis.md`` has both.
"""

from .engine import Finding, LintEngine, Rule, SourceModule, collect_files, package_relative
from .rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintEngine",
    "Rule",
    "SourceModule",
    "collect_files",
    "package_relative",
]
