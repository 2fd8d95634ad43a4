"""Exporters: JSONL IO, report rendering, report CLI."""

import json

from repro.obs.export import build_report, read_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import main as timeline_main


def _events():
    return [
        {"name": "switch.forward", "seq": 1, "wall_time": 0.0, "sim_time": 0.0},
        {"name": "switch.forward", "seq": 2, "wall_time": 0.0, "sim_time": 1e-6},
        {
            "name": "switch.trim",
            "seq": 3,
            "wall_time": 0.0,
            "sim_time": 2e-6,
            "fields": {"bytes_saved": 1400},
        },
        {
            "name": "switch.drop",
            "seq": 4,
            "wall_time": 0.0,
            "sim_time": 3e-6,
            "fields": {"kind": "buffer-overflow"},
        },
        {
            "name": "queue.sample",
            "seq": 5,
            "wall_time": 0.0,
            "sim_time": 4e-6,
            "fields": {"queue": "bottleneck", "bytes_queued": 30000},
        },
        {
            "name": "transport.deliver",
            "seq": 6,
            "wall_time": 0.0,
            "sim_time": 5e-6,
            "fields": {"fct_s": 5e-6, "retransmissions": 2},
        },
        {
            "name": "decode",
            "seq": 7,
            "wall_time": 0.0,
            "duration_s": 0.01,
            "fields": {"nmse": 0.05},
        },
    ]


class TestBuildReport:
    def test_sections_present(self):
        report = build_report(_events(), title="unit")
        assert "== unit ==" in report
        assert "-- switch --" in report
        assert "trim fraction 0.2500" in report  # 1 of 4 enqueues
        assert "drop fraction 0.2500" in report
        assert "1.40 kB" in report
        assert "buffer-overflow: 1" in report
        assert "-- queue depth (bytes) --" in report
        assert "bottleneck" in report
        assert "-- transport --" in report
        assert "messages delivered: 1" in report
        assert "retransmissions: 2" in report
        assert "-- gradient quality --" in report
        assert "0.05" in report
        assert "-- per-stage wall time --" in report
        assert "decode" in report

    def test_empty_events(self):
        report = build_report([])
        assert "0 trace events" in report

    def test_fabric_section_absent_on_healthy_runs(self):
        assert "-- fabric self-healing --" not in build_report(_events())

    def test_fabric_self_healing_section(self):
        events = _events() + [
            {
                "name": "switch.reroute",
                "seq": 8,
                "wall_time": 0.0,
                "sim_time": 6e-6,
                "fields": {"switch": "agg0", "flow_id": 7, "old_hop": "core1",
                           "new_hop": "core0"},
            },
            {
                "name": "switch.drop",
                "seq": 9,
                "wall_time": 0.0,
                "sim_time": 7e-6,
                "fields": {"kind": "blackhole"},
            },
            {
                "name": "switch.drop",
                "seq": 10,
                "wall_time": 0.0,
                "sim_time": 8e-6,
                "fields": {"kind": "switch-down"},
            },
        ]
        report = build_report(events, title="faulty")
        assert "-- fabric self-healing --" in report
        assert "flow reroutes: 1 (agg0: 1)" in report
        assert "failure drops: blackhole: 1, switch-down: 1" in report
        # Queue-full drops stay out of the failure line.
        assert "buffer-overflow" not in report.split("-- fabric")[1].split("--")[0]

    def test_metrics_snapshot_section(self):
        registry = MetricsRegistry()
        registry.counter("c", labels=("l",)).inc(9, l="x")
        report = build_report([], registry=registry)
        assert "-- metrics snapshot --" in report
        assert "l=x" in report


class TestJsonlAndCli:
    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"name": "a"}\n\n{"name": "b"}\n')
        assert [e["name"] for e in read_jsonl(str(path))] == ["a", "b"]

    def test_cli_renders_report(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        with open(path, "w") as fh:
            for ev in _events():
                fh.write(json.dumps(ev) + "\n")
        assert timeline_main(["report", str(path), "--title", "cli run"]) == 0
        out = capsys.readouterr().out
        assert "== cli run ==" in out
        assert "trim fraction" in out

    def test_cli_missing_file(self, tmp_path):
        assert timeline_main(["report", str(tmp_path / "nope.jsonl")]) == 1
