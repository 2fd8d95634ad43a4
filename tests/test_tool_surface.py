"""Pins the surface of the tools after the trials that cut them.

``repro-lint`` is gone: its per-line rules are checks in
``tests/test_static_checks.py``, and what its taint rule guarded (bytes
that change between processes) is
``tests/test_same_bytes_across_processes.py``.  ``repro-bench``
regenerates the paper's figures and nothing else; the perf ledger is
the only gate.  Every message crosses the simulator as a
``repro.transport.Transfer``, which builds the receiver its sender
names, and completion times and counts are read from the sender: no
flow log.  The mechanisms deleted in those trials
(docs/static_analysis.md and docs/performance.md, "Trial record")
should not grow back unnoticed.
"""

import argparse
import importlib.util
import inspect
import re
import subprocess
import tomllib
from pathlib import Path
from unittest import mock

import pytest

import repro.bench.__main__ as bench_cli
from repro.obs.trace import Tracer, trace_to
from repro.transport import GoBackNSender, MessageSenderBase, PullSender, TrimmingSender

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"


def _parser_surface(main):
    """(option strings, positional dests, choices by dest) of ``main``'s parser."""
    captured = {}

    def capture(parser, argv=None):
        captured["parser"] = parser
        raise SystemExit(0)

    with mock.patch.object(argparse.ArgumentParser, "parse_args", capture):
        with pytest.raises(SystemExit):
            main([])
    actions = [
        action
        for action in captured["parser"]._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    options = {opt for action in actions for opt in action.option_strings}
    positionals = {action.dest for action in actions if not action.option_strings}
    choices = {action.dest: set(action.choices) for action in actions if action.choices}
    return options, positionals, choices


def test_repro_bench_options_are_exactly_these():
    options, positionals, choices = _parser_surface(bench_cli.main)
    assert options == {"--scale", "--trace"}
    assert positionals == {"experiment"}
    assert choices == {
        "experiment": {"f2", "t2", "fig5", "t1", "fig3", "fig4", "all"},
        "scale": {"quick", "full"},
    }


def test_console_scripts_are_exactly_these():
    config = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert set(config["project"]["scripts"]) == {
        "repro-bench", "repro-report", "repro-faults", "repro-resilience", "repro-timeline",
        "repro-cluster",
    }


@pytest.mark.parametrize(
    "module",
    [
        "repro.lint",
        "repro.lint.cache",
        "repro.lint.sarif",
        "repro.lint.baseline",
        "repro.lint.flow_rules",
        "repro.bench.regression",
        "repro.net.trace",
        "repro.net.flow",
        "repro.obs.spans",
    ],
)
def test_deleted_modules_stay_deleted(module):
    try:
        spec = importlib.util.find_spec(module)
    except ModuleNotFoundError:  # its package is gone as well
        spec = None
    assert spec is None


def test_tracer_has_no_rotation_parameters():
    # One recorder, one switch, two sinks: no rotation, no keep flags, no caps.
    assert list(inspect.signature(Tracer.__init__).parameters) == [
        "self", "enabled", "jsonl_path", "spans_path",
    ]
    assert list(inspect.signature(trace_to).parameters) == ["path", "spans_path"]


def test_sender_constructors_take_no_flow_log():
    # A sender's completion time is its ``fct_s`` and its counts its tally.
    assert list(inspect.signature(MessageSenderBase.__init__).parameters) == [
        "self", "host", "flow_id", "cc", "rto_min", "rto_max", "max_retries",
    ]
    own = {
        cls: [
            name
            for name, param in inspect.signature(cls.__init__).parameters.items()
            if param.kind is param.KEYWORD_ONLY
        ]
        for cls in (GoBackNSender, PullSender, TrimmingSender)
    }
    assert own == {GoBackNSender: ["dupack_threshold"], PullSender: ["initial_window"],
                   TrimmingSender: []}


def test_receivers_are_built_only_by_the_transport():
    # Anything else puts its message on the wire through a Transfer.
    pattern = re.compile(r"\w+Receiver\(")
    offenders = [
        f"{path.relative_to(REPO_ROOT)}: {match.group(0)}"
        for top in ("src", "benchmarks", "examples")
        for path in sorted((REPO_ROOT / top).rglob("*.py"))
        if not path.is_relative_to(PACKAGE / "transport")
        for match in pattern.finditer(path.read_text(encoding="utf-8"))
    ]
    assert not offenders


def test_src_spawns_no_processes():
    pattern = re.compile(
        r"^\s*(import|from)\s+(concurrent\.futures|subprocess)\b", re.MULTILINE
    )
    offenders = [
        str(path.relative_to(REPO_ROOT))
        for path in sorted(PACKAGE.rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert not offenders


def test_no_run_outputs_are_tracked_under_benchmarks():
    try:
        listed = subprocess.run(
            ["git", "ls-files", "benchmarks"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    if not listed:
        pytest.skip("not a git checkout")
    assert not [name for name in listed if "results" in Path(name).name]
