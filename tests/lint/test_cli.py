"""CLI behaviour of ``repro-lint`` and the repo-wide meta-check."""

from pathlib import Path

import pytest

from repro.lint.cli import main
from tests.test_static_checks import INVARIANTS, covers

FIXTURES = Path(__file__).parent / "fixtures" / "repro"
REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_FIXTURES = ["net/bad_taint.py"]
#: Fixtures of the per-line rules, which tests/test_static_checks.py now gates.
STATIC_BAD_FIXTURES = [
    "core/bad_randomness.py",
    "core/bad_float_eq.py",
    "core/bad_mutable_default.py",
    "core/bad_print.py",
    "core/bad_float_identity.py",
]


@pytest.mark.parametrize("fixture", BAD_FIXTURES + STATIC_BAD_FIXTURES)
def test_bad_fixture_exits_nonzero(fixture, capsys):
    """Every bad fixture fails a gate: repro-lint exits 1, or an invariant check fires."""
    status = main([str(FIXTURES / fixture)])
    out = capsys.readouterr().out
    if fixture in STATIC_BAD_FIXTURES:
        assert status == 0 and "repro-lint: clean" in out
        text = (FIXTURES / fixture).read_text(encoding="utf-8")
        assert [found for check in INVARIANTS if covers(check, fixture) for found in check(text)]
        return
    assert status == 1
    assert "error[" in out
    assert "finding(s)" in out


def test_good_fixture_exits_zero(capsys):
    assert main([str(FIXTURES / "net" / "good_taint.py")]) == 0
    assert "repro-lint: clean" in capsys.readouterr().out


def test_directory_lint_collects_all_bad_fixtures(capsys):
    assert main([str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    for fixture in BAD_FIXTURES:
        assert fixture.rsplit("/", 1)[1] in out
    assert "good_taint.py" not in out


def test_missing_path_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([str(FIXTURES / "does_not_exist.py")])
    assert excinfo.value.code == 2


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
