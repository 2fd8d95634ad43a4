"""Repo-specific static analysis: AST invariant checks for the reproduction.

The test suite can only spot-check the reproduction's core invariants —
shared randomness (sender and receiver must draw identical streams),
sim-time purity (no wall-clock in the discrete-event simulator), and the
codec registry contract.  This package checks them *statically*: every
``src/repro`` module is parsed and walked by the rules in
:mod:`repro.lint.rules`, and CI fails on any finding.

See ``docs/static_analysis.md`` for the rule catalogue, and suppress a
deliberate violation with ``# repro-lint: disable=<rule>`` on the
offending line (or ``disable-file=<rule>`` anywhere in the file).
"""

from .engine import Finding, LintEngine, Rule, SourceModule, collect_files, package_relative
from .rules import ALL_RULES, rules_by_name

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintEngine",
    "Rule",
    "SourceModule",
    "collect_files",
    "package_relative",
    "rules_by_name",
]
