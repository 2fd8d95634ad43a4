"""Per-rule fixture tests for the repro-lint engine.

Each rule gets a *bad* fixture that must trip it and a *good* fixture
that must stay clean under every rule.  Fixtures live in a tree that
mimics the package layout (``fixtures/repro/core/...``) so the
path-scoped rules fire exactly as they would on ``src/repro``.
"""

from pathlib import Path

import pytest

from repro.lint import ALL_RULES, LintEngine, package_relative
from repro.lint.engine import SourceModule

FIXTURES = Path(__file__).parent / "fixtures" / "repro"

ENGINE = LintEngine(ALL_RULES)


def lint_fixture(name: str):
    return ENGINE.lint_file(FIXTURES / name)


def rule_names(findings) -> set:
    return {finding.rule for finding in findings}


BAD_FIXTURES = [
    ("core/bad_randomness.py", "bare-randomness"),
    ("net/bad_wallclock.py", "wall-clock-in-sim"),
    ("core/bad_codec_contract.py", "codec-contract"),
    ("core/bad_float_eq.py", "float-eq"),
    ("core/bad_mutable_default.py", "mutable-default"),
    ("core/bad_print.py", "print-call"),
    ("core/bad_float_identity.py", "float-eq"),
    ("core/bad_units.py", "bits-bytes"),
    ("net/bad_taint.py", "nondeterminism-taint"),
    ("net/bad_simcb.py", "sim-callback-write"),
    ("packet/bad_typestate.py", "packet-typestate"),
]

GOOD_FIXTURES = [
    "core/good_randomness.py",
    "net/good_wallclock.py",
    "core/good_codec_contract.py",
    "core/good_float_eq.py",
    "core/good_mutable_default.py",
    "core/good_print.py",
    "core/good_float_identity.py",
    "core/good_units.py",
    "net/good_taint.py",
    "net/good_simcb.py",
    "packet/good_typestate.py",
]


@pytest.mark.parametrize("fixture,rule", BAD_FIXTURES)
def test_bad_fixture_trips_rule(fixture, rule):
    findings = lint_fixture(fixture)
    assert rule in rule_names(findings), f"{fixture} should trip {rule}"
    for finding in findings:
        assert finding.line >= 1
        assert finding.col >= 1
        assert fixture.rsplit("/", 1)[1] in finding.path


@pytest.mark.parametrize("fixture", GOOD_FIXTURES)
def test_good_fixture_is_clean(fixture):
    assert lint_fixture(fixture) == []


def test_bad_randomness_flags_both_forms():
    findings = lint_fixture("core/bad_randomness.py")
    messages = " ".join(f.message for f in findings)
    assert "default_rng" in messages
    assert "numpy.random.rand" in messages


def test_bad_codec_contract_details():
    findings = lint_fixture("core/bad_codec_contract.py")
    messages = " ".join(f.message for f in findings)
    assert "decode()" in messages
    assert "`name`" in messages
    # codec_id = 99 is present and literal, so only two findings.
    assert len(findings) == 2


def test_findings_carry_hints_and_format():
    findings = lint_fixture("core/bad_print.py")
    assert findings, "fixture should produce findings"
    text = findings[0].format()
    assert "error[print-call]" in text
    assert "bad_print.py" in text
    assert "hint:" in text


def test_line_suppression_comment():
    assert lint_fixture("core/suppressed_print.py") == []


def test_file_level_suppression():
    source = (
        "# repro-lint: disable-file=print-call\n"
        "def report(value):\n"
        "    print(value)\n"
        "    print(value)\n"
    )
    assert ENGINE.lint_text(source, rel="core/x.py") == []


def test_disable_all_wildcard():
    source = "import time\nnow = time.time()  # repro-lint: disable=all\n"
    assert ENGINE.lint_text(source, rel="net/x.py") == []


def test_suppression_only_covers_named_rule():
    source = "def report(value):\n    print(value)  # repro-lint: disable=float-eq\n"
    findings = ENGINE.lint_text(source, rel="core/x.py")
    assert rule_names(findings) == {"print-call"}


def test_scoping_keeps_rules_in_their_packages():
    wallclock = "import time\nnow = time.time()\n"
    # wall-clock-in-sim is scoped to net/, transport/ and faults/: core/ is fine.
    assert ENGINE.lint_text(wallclock, rel="core/x.py") == []
    assert rule_names(ENGINE.lint_text(wallclock, rel="net/x.py")) == {"wall-clock-in-sim"}
    assert rule_names(ENGINE.lint_text(wallclock, rel="faults/x.py")) == {"wall-clock-in-sim"}

    bare = "import numpy as np\nrng = np.random.default_rng(1)\n"
    # bare-randomness covers the fault-injection package: seeded faults
    # must come from shared_generator, never an ad-hoc generator.
    assert rule_names(ENGINE.lint_text(bare, rel="faults/x.py")) == {"bare-randomness"}

    floats = "ok = value == 0.5\n"
    # float-eq is scoped to the numeric modules, not e.g. obs/.
    assert ENGINE.lint_text(floats, rel="obs/x.py") == []
    assert rule_names(ENGINE.lint_text(floats, rel="core/x.py")) == {"float-eq"}


def test_prng_module_is_exempt_from_bare_randomness():
    source = "import numpy as np\nrng = np.random.default_rng(1234)\n"
    assert ENGINE.lint_text(source, rel="transforms/prng.py") == []
    assert rule_names(ENGINE.lint_text(source, rel="transforms/dither.py")) == {
        "bare-randomness"
    }


def test_import_alias_resolution():
    source = "from numpy import random as npr\nx = npr.rand(3)\n"
    assert rule_names(ENGINE.lint_text(source, rel="core/x.py")) == {"bare-randomness"}
    source = "from time import monotonic as clock\nt = clock()\n"
    assert rule_names(ENGINE.lint_text(source, rel="net/x.py")) == {"wall-clock-in-sim"}


def test_package_relative():
    assert package_relative(Path("src/repro/core/codec.py")) == "core/codec.py"
    assert (
        package_relative(Path("tests/lint/fixtures/repro/net/bad_wallclock.py"))
        == "net/bad_wallclock.py"
    )
    assert package_relative(Path("standalone.py")) == "standalone.py"


def test_lint_results_are_reproducible():
    """Same bytes → identical findings, twice from one engine."""
    first = lint_fixture("core/bad_print.py")
    assert first and first == lint_fixture("core/bad_print.py")


def test_parse_error_becomes_finding(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n", encoding="utf-8")
    findings = ENGINE.lint_file(broken)
    assert rule_names(findings) == {"parse-error"}
    assert findings[0].line >= 1


def test_source_module_records_suppressions():
    module = SourceModule.parse(
        "# repro-lint: disable-file=float-eq\nx = 1  # repro-lint: disable=print-call\n"
    )
    assert module.file_suppressions == frozenset({"float-eq"})
    assert module.line_suppressions[2] == frozenset({"print-call"})


def test_taint_covers_fast_path_scheduling_apis():
    """schedule_call and reschedule are event-loop sinks like schedule."""
    findings = lint_fixture("net/bad_taint.py")
    sinks = " ".join(f.message for f in findings)
    assert "schedule() on the event loop" in sinks
    assert "schedule_call() on the event loop" in sinks
    assert "reschedule() on the event loop" in sinks
