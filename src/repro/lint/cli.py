"""``repro-lint`` — run the invariant checker from the command line.

Usage::

    repro-lint                     # lint src/repro (auto-detected)
    repro-lint src/repro tests     # explicit paths
    repro-lint --select float-eq,print-call path/to/file.py
    repro-lint --format json       # machine-readable findings
    repro-lint --list-rules        # what is checked, and why

Exit status: 0 when clean, 1 when any finding survives suppression, 2 on
usage errors.  Findings go to stdout, one per line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import LintEngine, Rule
from .rules import ALL_RULES, rules_by_name


def _default_paths() -> List[Path]:
    """``src/repro`` under the current directory, else the installed package."""
    candidate = Path("src") / "repro"
    if candidate.is_dir():
        return [candidate]
    return [Path(__file__).resolve().parent.parent]


def _parse_rule_list(text: str, parser: argparse.ArgumentParser) -> List[Rule]:
    known = rules_by_name()
    chosen: List[Rule] = []
    for name in (part.strip() for part in text.split(",")):
        if not name:
            continue
        if name not in known:
            parser.error(f"unknown rule {name!r}; known: {', '.join(sorted(known))}")
        chosen.append(known[name])
    return chosen


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant checker for the trimmable-gradients repo.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule names to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="finding output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            scope = ", ".join(rule.scope) if rule.scope else "whole package"
            sys.stdout.write(f"{rule.name} ({rule.severity}; scope: {scope})\n")
            sys.stdout.write(f"    {rule.description}\n")
        return 0

    rules: List[Rule] = list(ALL_RULES)
    if args.select:
        rules = _parse_rule_list(args.select, parser)
    if args.ignore:
        ignored = {rule.name for rule in _parse_rule_list(args.ignore, parser)}
        rules = [rule for rule in rules if rule.name not in ignored]
    if not rules:
        parser.error("no rules left to run after --select/--ignore")

    paths = args.paths or _default_paths()
    for path in paths:
        if not path.exists():
            parser.error(f"no such file or directory: {path}")

    findings = sorted(
        LintEngine(rules).lint_paths(paths),
        key=lambda f: (f.path, f.line, f.col, f.rule),
    )

    if args.format == "json":
        sys.stdout.write(json.dumps([f.to_json() for f in findings], indent=2) + "\n")
    else:
        for finding in findings:
            sys.stdout.write(finding.format() + "\n")
        summary = f"{len(findings)} finding(s) in {len(paths)} path(s)\n"
        sys.stdout.write(summary if findings else "repro-lint: clean\n")

    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
