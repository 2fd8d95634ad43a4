"""CLI behaviour of ``repro-lint`` and the repo-wide meta-check."""

import json
from pathlib import Path

import pytest

from repro.lint.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "repro"
REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_FIXTURES = [
    "core/bad_randomness.py",
    "net/bad_wallclock.py",
    "core/bad_codec_contract.py",
    "core/bad_float_eq.py",
    "core/bad_mutable_default.py",
    "core/bad_print.py",
    "core/bad_float_identity.py",
    "core/bad_units.py",
    "net/bad_taint.py",
    "packet/bad_typestate.py",
]


@pytest.mark.parametrize("fixture", BAD_FIXTURES)
def test_bad_fixture_exits_nonzero(fixture, capsys):
    assert main([str(FIXTURES / fixture)]) == 1
    out = capsys.readouterr().out
    assert "error[" in out
    assert "finding(s)" in out


def test_warning_severity_fixture_still_gates(capsys):
    assert main([str(FIXTURES / "net" / "bad_simcb.py")]) == 1
    assert "warning[sim-callback-write]" in capsys.readouterr().out


def test_good_fixture_exits_zero(capsys):
    assert main([str(FIXTURES / "core" / "good_randomness.py")]) == 0
    assert "repro-lint: clean" in capsys.readouterr().out


def test_suppressed_fixture_exits_zero(capsys):
    assert main([str(FIXTURES / "core" / "suppressed_print.py")]) == 0
    assert "repro-lint: clean" in capsys.readouterr().out


def test_directory_lint_collects_all_bad_fixtures(capsys):
    assert main([str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    for fixture in BAD_FIXTURES:
        assert fixture.rsplit("/", 1)[1] in out


def test_select_restricts_rules(capsys):
    bad = str(FIXTURES / "core" / "bad_print.py")
    assert main(["--select", "float-eq", bad]) == 0
    assert main(["--select", "print-call", bad]) == 1


def test_ignore_drops_rules(capsys):
    bad = str(FIXTURES / "core" / "bad_print.py")
    assert main(["--ignore", "print-call", bad]) == 0


def test_unknown_rule_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["--select", "no-such-rule", str(FIXTURES)])
    assert excinfo.value.code == 2


def test_missing_path_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([str(FIXTURES / "does_not_exist.py")])
    assert excinfo.value.code == 2


def test_json_format(capsys):
    assert main(["--format", "json", str(FIXTURES / "core" / "bad_float_eq.py")]) == 1
    records = json.loads(capsys.readouterr().out)
    assert records
    assert {record["rule"] for record in records} == {"float-eq"}
    for record in records:
        assert set(record) == {"rule", "path", "line", "col", "message", "severity", "hint"}


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in (
        "bare-randomness",
        "wall-clock-in-sim",
        "codec-contract",
        "float-eq",
        "mutable-default",
        "print-call",
    ):
        assert name in out


def test_list_rules_includes_flow_families(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in (
        "nondeterminism-taint",
        "packet-typestate",
        "bits-bytes",
        "sim-callback-write",
    ):
        assert name in out
    assert "sim-callback-write (warning" in out


def write_module(root: Path, rel: str, text: str) -> Path:
    target = root / "repro" / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    return target


def test_comma_separated_suppression(tmp_path):
    source = (
        "def f(v):\n"
        "    ok = v == 0.5; print(v)  # repro-lint: disable=float-eq,print-call\n"
        "    return ok\n"
    )
    target = write_module(tmp_path, "core/both.py", source)
    assert main([str(target)]) == 0


def test_comma_separated_suppression_is_not_a_wildcard(tmp_path, capsys):
    source = (
        "def f(v):\n"
        "    ok = v == 0.5; print(v)  # repro-lint: disable=float-eq\n"
        "    return ok\n"
    )
    target = write_module(tmp_path, "core/partial.py", source)
    assert main([str(target)]) == 1
    assert "print-call" in capsys.readouterr().out


def test_repo_source_tree_is_clean(capsys):
    """Meta-check: ``repro-lint src/repro`` must pass on the repo itself."""
    package = REPO_ROOT / "src" / "repro"
    assert package.is_dir()
    assert main([str(package)]) == 0, capsys.readouterr().out


def test_mypy_strict_core_passes():
    """Strict-core type check, run only where mypy is installed (CI lint job)."""
    mypy_api = pytest.importorskip("mypy.api")
    stdout, stderr, status = mypy_api.run(
        [
            "-p", "repro.core",
            "-p", "repro.packet",
            "-p", "repro.transforms",
            "-p", "repro.lint",
            "-p", "repro.faults",
            "-p", "repro.transport",
        ]
    )
    assert status == 0, stdout + stderr
