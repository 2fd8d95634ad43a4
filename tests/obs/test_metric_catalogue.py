"""The metric tables in the docs and the families in ``src/`` agree.

The registry holds counters only, so the docs tables are the catalogue:
every family name passed to ``registry.counter`` under ``src/repro`` must
appear in a table row of one of the three docs that catalogue metrics,
and every ``repro_*`` name in those tables must still be created
somewhere in ``src/``.  A trailing ``*`` in a doc row matches a prefix
(a family named by f-string).  A ``gauge(`` or ``histogram(`` call is
refused outright.
"""

import ast
import functools
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"
DOCS = [
    REPO_ROOT / "docs" / name
    for name in ("observability.md", "resilience.md", "fault_injection.md")
]


@functools.lru_cache(maxsize=None)
def _source_families():
    """(exact names, f-string prefixes) of every family created in src/."""
    exact, prefixes = set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.args
            ):
                continue
            assert node.func.attr not in ("gauge", "histogram"), (
                f"{path}:{node.lineno}: the registry keeps counters only"
            )
            if node.func.attr != "counter":
                continue
            name = node.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                exact.add(name.value)
            elif isinstance(name, ast.JoinedStr) and isinstance(
                name.values[0], ast.Constant
            ):
                prefixes.add(name.values[0].value)
            else:
                raise AssertionError(
                    f"{path}:{node.lineno}: metric family name is not a literal"
                )
    return exact, prefixes


@functools.lru_cache(maxsize=None)
def _documented_families():
    """(exact names, ``*``-prefixes) named in the docs' table rows."""
    exact, prefixes = set(), set()
    for doc in DOCS:
        for line in doc.read_text(encoding="utf-8").splitlines():
            if not line.startswith("|"):
                continue
            for name, star in re.findall(r"`(repro_[a-z0-9_]+)(\*?)`", line):
                (prefixes if star else exact).add(name)
    return exact, prefixes


def test_every_source_family_is_documented():
    src_exact, src_prefixes = _source_families()
    doc_exact, doc_prefixes = _documented_families()
    assert len(src_exact) >= 29  # the AST walk really found the call sites
    undocumented = sorted(
        name
        for name in src_exact
        if name not in doc_exact and not name.startswith(tuple(doc_prefixes))
    )
    assert not undocumented, f"add a docs table row for: {undocumented}"
    assert src_prefixes <= doc_prefixes, src_prefixes - doc_prefixes


def test_every_documented_family_exists():
    src_exact, src_prefixes = _source_families()
    doc_exact, doc_prefixes = _documented_families()
    stale = sorted(
        name
        for name in doc_exact
        if name not in src_exact and not name.startswith(tuple(src_prefixes))
    )
    assert not stale, f"documented but created nowhere in src/: {stale}"
    assert doc_prefixes <= src_prefixes, doc_prefixes - src_prefixes
