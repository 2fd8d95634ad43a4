"""What of CI's ``ruff`` / ``mypy`` steps can be checked without them, and the repo invariants.

Every name a package exports must also have a reader outside ``tests/``.

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


def strict_modules():
    """What pyproject.toml's ``disallow_untyped_defs`` overrides name (``repro.core.*``, ...)."""
    config = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    return sorted(module for override in config["tool"]["mypy"]["overrides"]
                  if override.get("disallow_untyped_defs") for module in override["module"])


def mypy_targets():
    """``strict_modules()`` as mypy arguments: ``-p`` a package, ``-m`` a single module."""
    return [arg for module in strict_modules() for arg in
            (("-p", module.removesuffix(".*")) if module.endswith(".*") else ("-m", module))]


def strict_files():
    """Source files of every module pyproject.toml types strictly."""
    files = set()
    for module in strict_modules():
        path = SRC / module.removesuffix(".*").replace(".", "/")
        found = [*path.rglob("*.py")] if module.endswith(".*") else [path.with_suffix(".py")]
        assert found and all(f.is_file() for f in found), f"{module} names no source file"
        files.update(found)
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

#: What numpy.random / random build from a caller's seed; any other function of theirs
#: draws from hidden global state or, like ``default_rng``, from an unshared stream.
SEEDED = {"Generator", "SeedSequence", "BitGenerator", "Philox", "PCG64", "PCG64DXSM",
          "MT19937", "SFC64", "Random"}
MUTATORS = {"append", "extend", "add", "update", "insert", "remove", "discard", "pop",
            "popitem", "clear", "setdefault", "__setitem__"}


def dotted(node, imports):
    """``np.random.rand`` -> ``numpy.random.rand`` through the module's imports."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return isinstance(node, ast.Name) and ".".join([imports.get(node.id, node.id), *parts[::-1]])


def bare_randomness(text):
    tree = ast.parse(text)
    modules, members = {}, {}  # local name -> what it is bound to; a member import wins
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                modules[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            members.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    for node in ast.walk(tree):
        name = isinstance(node, ast.Call) and dotted(node.func, modules | members) or ""
        if name.startswith(("numpy.random.", "random.")) and name.rpartition(".")[2] not in SEEDED:
            yield f"line {node.lineno}: {name}() bypasses repro.transforms.prng"


def float_eq(text):
    def is_float(node):  # a literal, or a signed one
        node = node.operand if isinstance(node, ast.UnaryOp) else node
        return isinstance(node, ast.Constant) and isinstance(node.value, float)

    for node in ast.walk(ast.parse(text)):
        operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
        for op, left, right in zip(getattr(node, "ops", ()), operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq, ast.Is, ast.IsNot)):
                if is_float(left) or is_float(right):
                    yield f"line {node.lineno}: exact comparison with a float literal"


def mutable_default(text):
    literals = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for default in node.args.defaults + [d for d in node.args.kw_defaults if d]:
                called = isinstance(default, ast.Call) and getattr(default.func, "id", None)
                if isinstance(default, literals) or called in ("list", "dict", "set", "bytearray"):
                    yield f"line {default.lineno}: {node.name}() has a mutable default"


def print_call(text):
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            yield f"line {node.lineno}: print() (log instead)"


def callback_writes(text):
    """Module-level state written by a callable posted with ``schedule*``."""
    tree = ast.parse(text)
    shared = {t.id for s in tree.body if isinstance(s, (ast.Assign, ast.AnnAssign, ast.AugAssign))
              for t in getattr(s, "targets", None) or [s.target] if isinstance(t, ast.Name)}
    defs = {d.name: d.body for d in ast.walk(tree)
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found = []
    for call in ast.walk(tree) if shared else ():
        posts = isinstance(call, ast.Call) and getattr(call.func, "attr", None)
        if posts not in ("schedule", "schedule_at", "schedule_call"):
            continue
        fn = call.args[1] if len(call.args) > 1 else None
        fn = next((k.value for k in reversed(call.keywords) if k.arg == "callback"), fn)
        if isinstance(fn, ast.Attribute):  # only ``self.method`` resolves
            fn = fn.attr if getattr(fn.value, "id", None) == "self" else None
        body = [fn.body] if isinstance(fn, ast.Lambda) else defs.get(getattr(fn, "id", fn), [])
        nodes = [node for stmt in body for node in ast.walk(stmt)]
        declared = {name for node in nodes if isinstance(node, ast.Global) for name in node.names}
        for node in nodes:
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            if getattr(getattr(node, "func", None), "attr", None) in MUTATORS:
                targets = [node.func]  # ``x.append(v)`` writes ``x`` as ``x[k] = v`` does
            for target in targets:
                if getattr(target, "id", None) in declared:  # a ``global`` name rebound
                    found.append((node.lineno, target.id))
                elif getattr(getattr(target, "value", None), "id", None) in shared:
                    found.append((node.lineno, target.value.id))
    for line, name in dict.fromkeys(found):
        yield f"line {line}: event-loop callback writes module state {name}"


#: Each invariant's package-relative scope (empty: all of src/repro) and exemption.
INVARIANTS = {
    bare_randomness: ("core/ transforms/ collectives/ transport/ train/ faults/ resilience/",
                      "transforms/prng.py"),  # the sanctioned source
    float_eq: ("core/ transforms/ nn/ collectives/ train/ bench/ resilience/", ""),
    mutable_default: ("", ""), print_call: ("", ""),
    callback_writes: ("net/ transport/ faults/ resilience/ train/ collectives/", ""),
}


def covers(check, rel):
    scope, exempt = (tuple(prefixes.split()) for prefixes in INVARIANTS[check])
    return not rel.startswith(exempt) and (not scope or rel.startswith(scope))


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_strict_packages(check):
    problems = []
    for path in strict_files():
        if check is unused_imports and path.name == "__init__.py":
            continue  # a package's imports are its public surface
        text = path.read_text(encoding="utf-8")
        problems += [f"{path.relative_to(REPO_ROOT)}: {found}" for found in check(text)]
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("check", INVARIANTS, ids=lambda check: check.__name__)
def test_repo_invariants(check):
    package = SRC / "repro"
    problems = [f"{path.relative_to(package)}: {found}" for path in sorted(package.rglob("*.py"))
                if covers(check, path.relative_to(package).as_posix())
                for found in check(path.read_text(encoding="utf-8"))]
    assert not problems, "\n".join(problems)


#: A module with every invariant's defect, and one with none of them.
BAD = (
    "import numpy as np\nfrom numpy import random as npr\nPENDING = {}\nSEEN = []\n"
    "def noisy(x, bucket=[], counts=dict()):\n    rng = np.random.default_rng()\n"
    "    print(x is 1.0 or x is not 0.5, x == 0.0 or x != -1.0)\n"
    "    return x + np.random.rand(4) + npr.rand(3) + rng.standard_normal(4)\n"
    "def watch(sim, flow_id):\n    def fire():\n"
    "        PENDING[flow_id] = sim.now\n        SEEN.append(flow_id)\n"
    "    sim.schedule(0.001, fire)\n"
)
GOOD = (
    "import logging\nfrom repro.transforms.prng import shared_generator\nPENDING = {}\n"
    "def noisy(x, seed: int, bucket=None):\n    logging.info('%s', x <= 0.0 or x is None)\n"
    "    return x + shared_generator(seed, purpose='dither').standard_normal(4) + (seed == 3)\n"
    "class Watcher:\n    def watch(self, flow):\n"
    "        self.sim.schedule(0, lambda: self.on(flow))\n"
    "    def on(self, flow):\n        self.pending[flow] = self.sim.now\n"
)


def test_the_checks_bite():
    """Each check finds the defect it is for in a module that has all of them."""
    bad = "import os\ndef f(x):\n    return missing + x\ny = " + "1 + " * 40 + "1\n"
    assert [list(check(bad)) for check in CHECKS] == [
        ["line 2: f has no annotation for x, return"],
        ["line 1: unused import os"],
        ["undefined name missing (in f)"],
        ["line 4: 165 columns"],
    ]
    assert [list(check(BAD)) for check in INVARIANTS] == [
        ["line 6: numpy.random.default_rng() bypasses repro.transforms.prng"]
        + ["line 8: numpy.random.rand() bypasses repro.transforms.prng"] * 2,
        ["line 7: exact comparison with a float literal"] * 4,
        ["line 5: noisy() has a mutable default"] * 2,
        ["line 7: print() (log instead)"],
        ["line 11: event-loop callback writes module state PENDING",
         "line 12: event-loop callback writes module state SEEN"],
    ]
    assert not [found for check in INVARIANTS for found in check(GOOD)]
    assert covers(bare_randomness, "faults/x.py") and covers(print_call, "obs/x.py")
    assert not covers(bare_randomness, "transforms/prng.py") and not covers(float_eq, "obs/x.py")


def test_ci_types_exactly_the_strict_modules():
    """CI's mypy step names the modules pyproject.toml holds to the strict bar, no more."""
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    (command,) = [line for line in ci.splitlines() if "python -m mypy " in line]
    args = command.split("python -m mypy ", 1)[1].split()
    targets = mypy_targets()
    assert sorted(zip(args[::2], args[1::2])) == sorted(zip(targets[::2], targets[1::2]))


#: Exported names nothing outside tests reads, each kept for the reason given.
UNREAD_EXPORTS = {
    "hadamard_matrix": "dense oracle the fast Walsh-Hadamard transform is tested against",
    "unpack_signs": "oracle the sign heads' bit patterns are read back with",
    "LogisticRegression": "the convex model of the training tests",
    "is_grad_enabled": "what no_grad switches, for tests to observe",
}
#: Decorators that register what they decorate: the registry is its reader.
REGISTRIES = {"register_codec"}


def exports():
    """(name, module) for every name a ``src/repro`` module's ``__all__`` lists."""
    for module in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.parse(module.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and "__all__" in [
                    getattr(target, "id", None) for target in node.targets]:
                yield from ((elt.value, module.relative_to(SRC)) for elt in node.value.elts)


def read_names(text, package_init=False):
    """Names a module reads: names, attributes and imports, never a string's words.

    A package ``__init__``'s relative import re-exports a name, it does not read it;
    a registered definition is read through its registry (``codec_by_name("sq")``).
    """
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not (package_init and node.level):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)) and any(
                getattr(d, "id", None) in REGISTRIES for d in node.decorator_list):
            names.add(node.name)
    return names


def test_every_export_has_a_reader_outside_tests():
    """Every exported name is read in src/ (a re-export is no read), benchmarks/ or examples/."""
    read = set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            read |= read_names(path.read_text(encoding="utf-8"), path.name == "__init__.py")
    unread = sorted(f"{module}: {name}" for name, module in exports()
                    if name not in read and name not in UNREAD_EXPORTS)
    assert not unread, "delete these or say in UNREAD_EXPORTS why they stay:\n" + "\n".join(unread)
    stale = sorted(name for name in UNREAD_EXPORTS if name in read)
    assert not stale, f"read now, drop from UNREAD_EXPORTS: {stale}"
    assert len(UNREAD_EXPORTS) <= 4


def test_the_reader_check_bites():
    """Strings, re-exports and the definition itself read nothing; uses and registries do."""
    assert read_names('"""f, G"""\ndef f():\n    return "G"\n') == set()
    assert read_names("from .ring import f\n", package_init=True) == set()
    assert read_names("from .ring import f\n") == {"f"}
    assert read_names("import m\nx = m.f(G)\n") >= {"f", "G"}
    assert "C" in read_names("@register_codec\nclass C:\n    pass\n")
    assert "C" not in read_names("@dataclass\nclass C:\n    pass\n")


def test_mypy_strict_core_passes():
    """Strict-core type check, run only where mypy is installed (CI lint job)."""
    mypy_api = pytest.importorskip("mypy.api")
    stdout, stderr, status = mypy_api.run(mypy_targets())
    assert status == 0, stdout + stderr


# The checks on the fixture modules, a bad and a good one per invariant, named by the
# repro-lint rules they replaced.  The fixtures mimic the package layout
# (``fixtures/repro/core/...``) so each check's scope applies as it does to src/repro.
FIXTURES = Path(__file__).parent / "fixtures" / "repro"
RULES = {"bare-randomness": bare_randomness, "float-eq": float_eq,
         "mutable-default": mutable_default, "print-call": print_call,
         "sim-callback-write": callback_writes}
BAD_FIXTURES = [
    ("core/bad_randomness.py", "bare-randomness"),
    ("core/bad_float_eq.py", "float-eq"),
    ("core/bad_mutable_default.py", "mutable-default"),
    ("core/bad_print.py", "print-call"),
    ("core/bad_float_identity.py", "float-eq"),
    ("net/bad_simcb.py", "sim-callback-write"),
]
GOOD_FIXTURES = [
    "core/good_randomness.py",
    "core/good_float_eq.py",
    "core/good_mutable_default.py",
    "core/good_print.py",
    "core/good_float_identity.py",
    "net/good_simcb.py",
]


def rules_of(text, rel):
    """The rules ``text`` breaks at package path ``rel``."""
    return {rule for rule, check in RULES.items() if covers(check, rel) and any(check(text))}


def fixture_rules(name):
    return rules_of((FIXTURES / name).read_text(encoding="utf-8"), name)


@pytest.mark.parametrize("fixture,rule", BAD_FIXTURES)
def test_bad_fixture_trips_rule(fixture, rule):
    assert rule in fixture_rules(fixture), f"{fixture} should trip {rule}"


@pytest.mark.parametrize("fixture", GOOD_FIXTURES)
def test_good_fixture_is_clean(fixture):
    assert fixture_rules(fixture) == set()


@pytest.mark.parametrize("fixture", [name for name, _ in BAD_FIXTURES if name.startswith("core/")])
def test_bad_fixture_exits_nonzero(fixture):
    """Every bad fixture fails a gate: some invariant check in scope fires on it."""
    text = (FIXTURES / fixture).read_text(encoding="utf-8")
    assert [found for check in INVARIANTS if covers(check, fixture) for found in check(text)]


def test_bad_randomness_flags_both_forms():
    text = (FIXTURES / "core" / "bad_randomness.py").read_text(encoding="utf-8")
    messages = " ".join(bare_randomness(text))
    assert "default_rng" in messages
    assert "numpy.random.rand" in messages


def test_prng_module_is_exempt_from_bare_randomness():
    source = "import numpy as np\nrng = np.random.default_rng(1234)\n"
    assert rules_of(source, "transforms/prng.py") == set()
    assert rules_of(source, "transforms/dither.py") == {"bare-randomness"}
