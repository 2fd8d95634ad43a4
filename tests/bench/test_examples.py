"""Smoke tests: every example script runs to completion.

The heavy training examples are exercised with reduced settings by
importing their entry modules and patching the expensive constants;
cheap examples run as-is via their ``main()``.
"""

import importlib.util
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def load_example(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesExist:
    def test_required_examples_present(self):
        names = {p.stem for p in EXAMPLES.glob("*.py")}
        assert {"quickstart", "distributed_training", "congested_fabric",
                "multilevel_trimming", "record_replay", "shared_fabric"} <= names


class TestExamplesRun:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "compression 94" in out
        assert "rht" in out

    def test_multilevel_trimming(self, capsys):
        load_example("multilevel_trimming").main()
        out = capsys.readouterr().out
        assert "no congestion (untrimmed)" in out

    def test_record_replay(self, capsys):
        load_example("record_replay").main()
        out = capsys.readouterr().out
        assert "bit-identical: True" in out

    def test_distributed_training_reduced(self, capsys, monkeypatch):
        module = load_example("distributed_training")
        monkeypatch.setattr(module, "EPOCHS", 1)
        module.main()
        out = capsys.readouterr().out
        assert "baseline (no trim)" in out
        assert "rht" in out

    def test_congested_fabric_reduced(self, capsys, monkeypatch):
        module = load_example("congested_fabric")
        monkeypatch.setattr(module, "GRADIENT_COORDS", 50_000)
        module.main()
        out = capsys.readouterr().out
        assert "flow completion time" in out
        assert "retransmissions" in out

    def test_shared_fabric_reduced(self, capsys, monkeypatch):
        module = load_example("shared_fabric")
        monkeypatch.setattr(module, "COORDS_PER_JOB", 40_000)
        module.main()
        out = capsys.readouterr().out
        assert "job-A" in out
        assert "job-B" in out

    def test_gradient_analysis(self, capsys):
        load_example("gradient_analysis").main()
        out = capsys.readouterr().out
        assert "heavy-tail index" in out
        assert "rht" in out

    def test_observability_demo_reduced(self, capsys, monkeypatch):
        module = load_example("observability_demo")
        monkeypatch.setattr(module, "GRADIENT_COORDS", 50_000)
        module.main()
        out = capsys.readouterr().out
        assert "trim fraction" in out
        assert "-- metrics snapshot --" in out
        assert "repro-timeline report" in out
