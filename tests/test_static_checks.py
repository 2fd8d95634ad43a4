"""What of CI's ``ruff`` / ``mypy`` steps can be checked without them.

Neither tool is installed where this repo is built, and for seven PRs
that meant "unverified here".  This is the offline part as a tier-1
test: over the packages ``pyproject.toml`` holds to the strict mypy bar
(``disallow_untyped_defs``), every ``def`` is fully annotated, no import
is unused, no name is undefined and no line is over 100 columns.  Types
themselves, import order and everything outside the strict packages are
still verified only by CI (docs/static_analysis.md).
"""

import ast
import builtins
import symtable
import tomllib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
MAX_COLUMNS = 100
#: Module-level names the interpreter defines.
MODULE_DUNDERS = {"__name__", "__file__", "__doc__", "__package__", "__spec__", "__path__"}


def strict_files():
    """Source files of every module pyproject.toml types strictly."""
    config = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    files = set()
    for override in config["tool"]["mypy"]["overrides"]:
        if not override.get("disallow_untyped_defs"):
            continue
        for module in override["module"]:
            path = SRC / module.removesuffix(".*").replace(".", "/")
            files.update(path.rglob("*.py") if module.endswith(".*") else [path.with_suffix(".py")])
    assert len(files) >= 50 and all(f.is_file() for f in files)
    return sorted(files)


def unannotated(text):
    """``def``s mypy's disallow_untyped_defs / incomplete_defs would reject."""
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        if params and params[0].arg in ("self", "cls"):
            params = params[1:]
        missing = [a.arg for a in params if a.annotation is None]
        # mypy lets __init__ omit "-> None" once an argument is annotated.
        if node.returns is None and not (node.name == "__init__" and params and not missing):
            missing.append("return")
        if missing:
            yield f"line {node.lineno}: {node.name} has no annotation for {', '.join(missing)}"


def unused_imports(text):
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # quoted annotations: strings that are expressions
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used and bound != "*":
                    yield f"line {node.lineno}: unused import {bound}"


def undefined_names(text):
    """Names no enclosing scope, the module or ``builtins`` defines."""
    module = symtable.symtable(text, "<module>", "exec")
    known = set(dir(builtins)) | MODULE_DUNDERS
    known |= {s.get_name() for s in module.get_symbols() if s.is_assigned() or s.is_imported()}

    def walk(table):
        for symbol in table.get_symbols():
            at_module = table is module and not (symbol.is_assigned() or symbol.is_imported())
            if (symbol.is_global() or at_module) and symbol.is_referenced():
                if symbol.get_name() not in known:
                    yield f"undefined name {symbol.get_name()} (in {table.get_name()})"
        for child in table.get_children():
            # ``global x`` in a function defines x at module level.
            known.update(s.get_name() for s in child.get_symbols() if s.is_declared_global())
            yield from walk(child)

    yield from walk(module)


def long_lines(text):
    for number, line in enumerate(text.splitlines(), start=1):
        if len(line) > MAX_COLUMNS:
            yield f"line {number}: {len(line)} columns"


CHECKS = [unannotated, unused_imports, undefined_names, long_lines]


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_strict_packages(check):
    problems = []
    for path in strict_files():
        if check is unused_imports and path.name == "__init__.py":
            continue  # a package's imports are its public surface
        text = path.read_text(encoding="utf-8")
        problems += [f"{path.relative_to(REPO_ROOT)}: {found}" for found in check(text)]
    assert not problems, "\n".join(problems)


def test_the_checks_bite():
    """Each check finds the defect it is for in a module that has all four."""
    bad = "import os\ndef f(x):\n    return missing + x\ny = " + "1 + " * 40 + "1\n"
    assert [list(check(bad)) for check in CHECKS] == [
        ["line 2: f has no annotation for x, return"],
        ["line 1: unused import os"],
        ["undefined name missing (in f)"],
        ["line 4: 165 columns"],
    ]
