"""``repro-lint`` — run the ``nondeterminism-taint`` rule from the command line.

Usage::

    repro-lint                     # lint src/repro (auto-detected)
    repro-lint src/repro tests     # explicit paths

Exit status: 0 when clean, 1 on any finding, 2 on usage errors.
Findings go to stdout, one per line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import LintEngine
from .rules import ALL_RULES


def _default_paths() -> List[Path]:
    """``src/repro`` under the current directory, else the installed package."""
    candidate = Path("src") / "repro"
    if candidate.is_dir():
        return [candidate]
    return [Path(__file__).resolve().parent.parent]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Dataflow check that no nondeterminism reaches the event loop, "
        "codec state or a packet payload.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    args = parser.parse_args(argv)

    paths = args.paths or _default_paths()
    for path in paths:
        if not path.exists():
            parser.error(f"no such file or directory: {path}")

    findings = sorted(
        LintEngine(ALL_RULES).lint_paths(paths),
        key=lambda f: (f.path, f.line, f.col, f.rule),
    )
    for finding in findings:
        sys.stdout.write(finding.format() + "\n")
    summary = f"{len(findings)} finding(s) in {len(paths)} path(s)\n"
    sys.stdout.write(summary if findings else "repro-lint: clean\n")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
