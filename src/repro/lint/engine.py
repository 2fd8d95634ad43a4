"""AST-walking lint engine: findings, suppressions, and file traversal.

The engine is deliberately small: a :class:`Rule` inspects one parsed
module at a time and yields :class:`Finding` records with ``file:line``
positions, a severity, and a fix hint.  The engine owns everything rules
should not care about — locating files, computing package-relative paths
(so rules can scope themselves to e.g. ``core/``), parsing, and honoring
``# repro-lint: disable=<rule>`` suppression comments.

Rules live in :mod:`repro.lint.rules`; the CLI in :mod:`repro.lint.cli`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "LintEngine",
    "Rule",
    "SourceModule",
    "package_relative",
]

#: Rule name that matches every rule in a suppression comment.
SUPPRESS_ALL = "all"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<file_scope>-file)?\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_-]+(?:\s*,\s*[A-Za-z0-9_-]+)*)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source position.

    Attributes:
        rule: rule name (e.g. ``bare-randomness``).
        path: display path of the offending file.
        line: 1-based line number.
        col: 1-based column number.
        message: what is wrong, specifically.
        severity: ``"error"`` (gates CI) or ``"warning"``.
        hint: how to fix it — or how to suppress when intentional.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"
    hint: str = ""

    def format(self) -> str:
        """Render as ``path:line:col: severity[rule] message (hint: ...)``."""
        text = f"{self.path}:{self.line}:{self.col}: {self.severity}[{self.rule}] {self.message}"
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable record (for ``repro-lint --format json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
            "hint": self.hint,
        }


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
        text: raw source.
        tree: parsed AST.
        line_suppressions: line number → rule names disabled on that line.
        file_suppressions: rule names disabled for the whole file.
    """

    path: str
    rel: str
    text: str
    tree: ast.Module
    line_suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    file_suppressions: FrozenSet[str] = frozenset()

    @classmethod
    def parse(cls, text: str, path: str = "<string>", rel: Optional[str] = None) -> "SourceModule":
        """Parse source text; raises ``SyntaxError`` on invalid input."""
        tree = ast.parse(text, filename=path)
        line_suppressions: Dict[int, FrozenSet[str]] = {}
        file_rules: set[str] = set()
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            rules = frozenset(name.strip() for name in match.group("rules").split(","))
            if match.group("file_scope"):
                file_rules |= rules
            else:
                line_suppressions[lineno] = line_suppressions.get(lineno, frozenset()) | rules
        if rel is None:
            rel = package_relative(Path(path))
        return cls(
            path=path,
            rel=rel,
            text=text,
            tree=tree,
            line_suppressions=line_suppressions,
            file_suppressions=frozenset(file_rules),
        )

    def suppressed(self, finding: Finding) -> bool:
        """True when a disable comment covers this finding."""
        names = {finding.rule, SUPPRESS_ALL}
        if self.file_suppressions & names:
            return True
        return bool(self.line_suppressions.get(finding.line, frozenset()) & names)


class Rule:
    """Base class for one invariant check.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings for one module.  ``scope`` lists package-relative
    path prefixes the rule applies to (empty = the whole package);
    ``exempt`` lists prefixes carved back out (e.g. the sanctioned
    randomness source ``transforms/prng.py``).
    """

    name: str = ""
    severity: str = "error"
    description: str = ""
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

    def finding(
        self,
        module: SourceModule,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
    ) -> Finding:
        """Build a :class:`Finding` positioned at ``node``."""
        return Finding(
            rule=self.name,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=self.severity,
            hint=self.hint if hint is None else hint,
        )


class LintEngine:
    """Runs a set of rules over files, modules, or raw source text."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        names = [rule.name for rule in rules]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate rule names: {sorted(names)}")
        self.rules: List[Rule] = list(rules)

    def lint_module(self, module: SourceModule) -> List[Finding]:
        """All unsuppressed findings for one parsed module."""
        findings: List[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(module.rel):
                continue
            for finding in rule.check(module):
                if not module.suppressed(finding):
                    findings.append(finding)
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
