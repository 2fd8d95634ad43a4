"""Fixture tests for the ``nondeterminism-taint`` rule, the engine and the invariants.

Each rule gets a *bad* fixture that must trip it and a *good* fixture
that must stay clean under every rule.  The per-line rules are now the
checks of ``tests/test_static_checks.py``, named here by their old rule
names.  Fixtures live in a tree that mimics the package layout
(``fixtures/repro/core/...``) so the path-scoped rules fire exactly as
they would on ``src/repro``.
"""

from pathlib import Path

import pytest

from repro.lint import ALL_RULES, LintEngine, package_relative
from tests.test_static_checks import (
    bare_randomness,
    callback_writes,
    covers,
    float_eq,
    mutable_default,
    print_call,
)

FIXTURES = Path(__file__).parent / "fixtures" / "repro"

ENGINE = LintEngine(ALL_RULES)


def lint_fixture(name: str):
    return ENGINE.lint_file(FIXTURES / name)


def rule_names(findings) -> set:
    return {finding.rule for finding in findings}


STATIC_CHECKS = {
    "bare-randomness": bare_randomness,
    "float-eq": float_eq,
    "mutable-default": mutable_default,
    "print-call": print_call,
    "sim-callback-write": callback_writes,
}


def rules_of(text: str, rel: str) -> set:
    """Rules ``text`` breaks at package path ``rel``: repro-lint's and the static checks'."""
    static = {rule for rule, check in STATIC_CHECKS.items()
              if covers(check, rel) and any(check(text))}
    return rule_names(ENGINE.lint_text(text, rel=rel)) | static


def fixture_rules(name: str) -> set:
    return rules_of((FIXTURES / name).read_text(encoding="utf-8"), name)


BAD_FIXTURES = [
    ("core/bad_randomness.py", "bare-randomness"),
    ("core/bad_float_eq.py", "float-eq"),
    ("core/bad_mutable_default.py", "mutable-default"),
    ("core/bad_print.py", "print-call"),
    ("core/bad_float_identity.py", "float-eq"),
    ("net/bad_taint.py", "nondeterminism-taint"),
    ("net/bad_simcb.py", "sim-callback-write"),
]

GOOD_FIXTURES = [
    "core/good_randomness.py",
    "core/good_float_eq.py",
    "core/good_mutable_default.py",
    "core/good_print.py",
    "core/good_float_identity.py",
    "net/good_taint.py",
    "net/good_simcb.py",
]


@pytest.mark.parametrize("fixture,rule", BAD_FIXTURES)
def test_bad_fixture_trips_rule(fixture, rule):
    assert rule in fixture_rules(fixture), f"{fixture} should trip {rule}"
    findings = lint_fixture(fixture)
    for finding in findings:
        assert finding.line >= 1
        assert finding.col >= 1
        assert fixture.rsplit("/", 1)[1] in finding.path


@pytest.mark.parametrize("fixture", GOOD_FIXTURES)
def test_good_fixture_is_clean(fixture):
    assert lint_fixture(fixture) == []
    assert fixture_rules(fixture) == set()


def test_bad_randomness_flags_both_forms():
    text = (FIXTURES / "core" / "bad_randomness.py").read_text(encoding="utf-8")
    messages = " ".join(bare_randomness(text))
    assert "default_rng" in messages
    assert "numpy.random.rand" in messages


def test_findings_carry_hints_and_format():
    findings = lint_fixture("net/bad_taint.py")
    assert findings, "fixture should produce findings"
    text = findings[0].format()
    assert "error[nondeterminism-taint]" in text
    assert "bad_taint.py" in text
    assert "hint:" in text


def test_scoping_keeps_rules_in_their_packages():
    source = "import random\n\ndef go(sim):\n    sim.schedule(random.random(), go)\n"
    # obs/ records wall-clock spans on purpose; the rule is for sim-time code.
    assert ENGINE.lint_text(source, rel="obs/x.py") == []
    assert ENGINE.lint_text(source, rel="transforms/prng.py") == []
    assert rule_names(ENGINE.lint_text(source, rel="net/x.py")) == {"nondeterminism-taint"}
    assert rule_names(ENGINE.lint_text(source, rel="faults/x.py")) == {"nondeterminism-taint"}


def test_prng_module_is_exempt_from_bare_randomness():
    source = "import numpy as np\nrng = np.random.default_rng(1234)\n"
    assert rules_of(source, "transforms/prng.py") == set()
    assert rules_of(source, "transforms/dither.py") == {"bare-randomness"}


def test_import_alias_resolution():
    source = "from numpy import random as npr\n\ndef go(sim):\n    sim.schedule(npr.rand(), go)\n"
    assert rule_names(ENGINE.lint_text(source, rel="net/x.py")) == {"nondeterminism-taint"}
    source = "from time import monotonic as clock\n\ndef go(sim):\n    sim.schedule_at(clock(), go)\n"
    assert rule_names(ENGINE.lint_text(source, rel="net/x.py")) == {"nondeterminism-taint"}


def test_package_relative():
    assert package_relative(Path("src/repro/core/codec.py")) == "core/codec.py"
    assert (
        package_relative(Path("tests/lint/fixtures/repro/net/bad_taint.py"))
        == "net/bad_taint.py"
    )
    assert package_relative(Path("standalone.py")) == "standalone.py"


def test_lint_results_are_reproducible():
    """Same bytes → identical findings, twice from one engine."""
    first = lint_fixture("net/bad_taint.py")
    assert first and first == lint_fixture("net/bad_taint.py")


def test_parse_error_becomes_finding(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n", encoding="utf-8")
    findings = ENGINE.lint_file(broken)
    assert rule_names(findings) == {"parse-error"}
    assert findings[0].line >= 1


def test_taint_covers_fast_path_scheduling_apis():
    """schedule_call and reschedule are event-loop sinks like schedule."""
    findings = lint_fixture("net/bad_taint.py")
    sinks = " ".join(f.message for f in findings)
    assert "schedule() on the event loop" in sinks
    assert "schedule_call() on the event loop" in sinks
    assert "reschedule() on the event loop" in sinks
