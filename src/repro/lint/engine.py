"""AST-walking lint engine: findings and file traversal.

The engine is deliberately small: a :class:`Rule` inspects one parsed
module at a time and yields :class:`Finding` records with ``file:line``
positions and a fix hint.  The engine owns everything rules should not
care about — locating files, computing package-relative paths (so rules
can scope themselves to e.g. ``core/``) and parsing.

Rules live in :mod:`repro.lint.rules`; the CLI in :mod:`repro.lint.cli`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "LintEngine",
    "Rule",
    "SourceModule",
    "package_relative",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source position.

    Attributes:
        rule: rule name (e.g. ``bare-randomness``).
        path: display path of the offending file.
        line: 1-based line number.
        col: 1-based column number.
        message: what is wrong, specifically.
        hint: how to fix it.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def format(self) -> str:
        """Render as ``path:line:col: error[rule] message (hint: ...)``."""
        text = f"{self.path}:{self.line}:{self.col}: error[{self.rule}] {self.message}"
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text


def package_relative(path: Path) -> str:
    """Path relative to the innermost ``repro`` package directory.

    ``src/repro/core/codec.py`` → ``core/codec.py``.  Rules scope
    themselves on this form, so the checker behaves identically whether
    invoked on ``src/repro``, an installed package, or a test fixture
    tree that mimics the package layout (``fixtures/repro/core/x.py``).
    Files outside any ``repro`` directory fall back to their own name.
    """
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro" and index < len(parts) - 1:
            return "/".join(parts[index + 1 :])
    return path.name


@dataclass
class SourceModule:
    """One parsed Python file, ready for rules to inspect.

    Attributes:
        path: display path (what findings report).
        rel: package-relative posix path used for rule scoping.
        tree: parsed AST.
    """

    path: str
    rel: str
    tree: ast.Module

    @classmethod
    def parse(cls, text: str, path: str = "<string>", rel: Optional[str] = None) -> "SourceModule":
        """Parse source text; raises ``SyntaxError`` on invalid input."""
        tree = ast.parse(text, filename=path)
        if rel is None:
            rel = package_relative(Path(path))
        return cls(path=path, rel=rel, tree=tree)


class Rule:
    """Base class for one invariant check.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings for one module.  ``scope`` lists package-relative
    path prefixes the rule applies to (empty = the whole package);
    ``exempt`` lists prefixes carved back out (e.g. the sanctioned
    randomness source ``transforms/prng.py``).
    """

    name: str = ""
    hint: str = ""
    scope: Tuple[str, ...] = ()
    exempt: Tuple[str, ...] = ()

    def applies_to(self, rel: str) -> bool:
        """Whether this rule runs on the module at package-relative ``rel``."""
        if any(rel.startswith(prefix) for prefix in self.exempt):
            return False
        return not self.scope or any(rel.startswith(prefix) for prefix in self.scope)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        """Yield findings for one module; implemented by subclasses."""
        raise NotImplementedError

    def finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` positioned at ``node``."""
        return Finding(
            rule=self.name,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.hint,
        )


class LintEngine:
    """Runs a set of rules over files, modules, or raw source text."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        names = [rule.name for rule in rules]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate rule names: {sorted(names)}")
        self.rules: List[Rule] = list(rules)

    def lint_module(self, module: SourceModule) -> List[Finding]:
        """All findings for one parsed module."""
        findings: List[Finding] = []
        for rule in self.rules:
            if rule.applies_to(module.rel):
                findings.extend(rule.check(module))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings

    def lint_text(
        self, text: str, path: str = "<string>", rel: Optional[str] = None
    ) -> List[Finding]:
        """Lint raw source (used by the fixture tests)."""
        return self.lint_module(SourceModule.parse(text, path=path, rel=rel))

    def lint_file(self, path: Path) -> List[Finding]:
        """Lint one file; a syntax error becomes a ``parse-error`` finding."""
        try:
            text = path.read_text(encoding="utf-8")
            module = SourceModule.parse(text, path=str(path))
        except SyntaxError as exc:
            return [
                Finding(
                    rule="parse-error",
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"cannot parse: {exc.msg}",
                )
            ]
        return self.lint_module(module)

    def lint_paths(self, paths: Iterable[Path]) -> List[Finding]:
        """Lint files and/or directory trees (``*.py``, sorted order)."""
        findings: List[Finding] = []
        for path in collect_files(paths):
            findings.extend(self.lint_file(path))
        return findings


def collect_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into the ordered list of ``*.py`` files.

    Directories are walked recursively in sorted order; explicit file
    arguments are kept as-is (even non-``.py`` ones — the caller asked).
    """
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files
