"""Worker-fault training from the command line: ``repro-faults train`` and
``resume-check``."""

import json

import pytest

from repro.faults.cli import build_parser, main
from repro.resilience import RoundDeadline


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        ns = build_parser().parse_args(["train", "worker-crash"])
        assert ns.scenario.name == "worker-crash"
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
            ["train", "worker-crash", "--epochs", "2", "--world", "3",
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
        with pytest.raises(SystemExit) as exc:
            main(["train", "no-such-preset", "--epochs", "1"])
        assert exc.value.code == 2


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

    @pytest.mark.parametrize("crash_round", [-1, 0, 11, 999])
    def test_a_crash_outside_the_run_is_a_usage_error(self, crash_round, caplog, capsys):
        # Two epochs of three workers are rounds 1..10: a crash anywhere else
        # never interrupts the run, and "resume-check ok" would mean nothing.
        # Below round 1 is refused while parsing, before anything trains;
        # past the end only once the reference run has counted its rounds.
        argv = ["resume-check", "worker-crash", "--epochs", "2", "--world", "3",
                "--crash-round", str(crash_round)]
        if crash_round < 1:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert (
                f"error: argument --crash-round: must be at least 1, got {crash_round}"
                in capsys.readouterr().err
            )
            return
        with caplog.at_level("ERROR"):
            assert main(argv) == 2
        (line,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert line == (
            f"repro-faults: --crash-round {crash_round} is outside the run's rounds 1..10"
        )

    def test_a_state_only_divergence_fails(self, monkeypatch, caplog):
        # A restore that forgets the deadline's counters replays the same
        # history; only the final checkpoint shows the lost state.
        monkeypatch.setattr(RoundDeadline, "load_state_dict", lambda self, state: None)
        argv = ["resume-check", "straggler-storm", "--epochs", "2", "--world", "3",
                "--crash-round", "4"]
        with caplog.at_level("ERROR"):
            assert main(argv) == 1
        (line,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert line == (
            "resume mismatch: crash at round 4 left the final state's 'deadline' "
            "different from the uninterrupted run's"
        )

    def test_a_crash_in_the_last_round_is_inside_the_run(self):
        argv = ["resume-check", "worker-crash", "--epochs", "2", "--world", "3",
                "--crash-round", "10"]
        assert main(argv) == 0
