"""The repro-resilience command line."""

import json

import pytest

from repro.resilience.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        ns = build_parser().parse_args(["run", "worker-crash"])
        assert ns.scenario == "worker-crash"
        assert ns.epochs == 20
        assert not ns.ef

    def test_resume_check_args(self):
        ns = build_parser().parse_args(
            ["resume-check", "straggler-storm", "--crash-round", "9", "--ef"]
        )
        assert ns.crash_round == 9
        assert ns.ef


class TestRun:
    def test_completes_under_worker_crash(self, tmp_path):
        out = tmp_path / "history.json"
        code = main(
            ["run", "worker-crash", "--epochs", "2", "--world", "3",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["epochs"] == 2
        assert payload["summary"]["states"]["1"] == "dead"
        assert payload["summary"]["evictions"] == 1
        assert len(payload["history"]) == 2

    def test_unknown_scenario(self):
        # A usage error: one line naming the presets, exit 2, no traceback.
        assert main(["run", "no-such-preset", "--epochs", "1"]) == 2


class TestResumeCheck:
    def test_byte_identical(self):
        code = main(
            ["resume-check", "worker-crash", "--epochs", "2", "--world", "3",
             "--crash-round", "3"]
        )
        assert code == 0

    def test_with_error_feedback(self):
        code = main(
            ["resume-check", "straggler-storm", "--epochs", "2", "--world", "3",
             "--crash-round", "4", "--ef"]
        )
        assert code == 0
