"""repro-timeline: binning, rendering, HTML export, CLI round trip."""

import json

import pytest

from repro.obs.export import timeline_html
from repro.obs.timeline import Timeline, build_timeline, main, render_timeline


def ev(name, t, **fields):
    doc = {"name": name, "seq": 1, "wall_time": 0.0}
    if t is not None:
        doc["sim_time"] = t
    if fields:
        doc["fields"] = fields
    return doc


def synthetic_events():
    return [
        ev("queue.sample", 0.0, queue="s0->s1", bytes_queued=100),
        ev("queue.sample", 0.5, queue="s0->s1", bytes_queued=900),
        ev("queue.sample", 1.0, queue="s0->s1", bytes_queued=400),
        ev("switch.forward", 0.1, flow_id=500),
        ev("switch.forward", 0.6, flow_id=500),
        ev("switch.trim", 0.6, flow_id=500),
        ev("switch.drop", 0.7, kind="buffer-overflow"),
        ev("transport.retransmit", 0.8, flow_id=500, seq=3, attempt=1),
        ev("transport.surrender", 0.9, flow_id=501, reason="retries"),
    ]


class TestBuildTimeline:
    def test_bins_span_the_event_range(self):
        tl = build_timeline(synthetic_events(), bins=10)
        assert tl.t0 == 0.0
        assert tl.t1 == 1.0
        assert tl.bin_s == pytest.approx(0.1)
        assert tl.events_seen == 9

    def test_queue_bins_take_peak(self):
        tl = build_timeline(synthetic_events(), bins=2)
        series = tl.queues["s0->s1"]
        # t=0.5 and the clamped t=1.0 share bin 1; the peak (900) wins.
        assert series == [100.0, 900.0]

    def test_activity_rows(self):
        tl = build_timeline(synthetic_events(), bins=1)
        assert tl.activity["forward"] == [2]
        assert tl.activity["trim"] == [1]
        assert tl.activity["drop"] == [1]
        assert tl.activity["retransmit"] == [1]

    def test_marks_and_flow_rows(self):
        tl = build_timeline(synthetic_events(), bins=4)
        assert tl.marks == [(0.9, "transport.surrender", "flow_id=501, reason=retries")]
        (row,) = tl.layers
        assert row["flow"] == 500
        assert row["trims"] == 1
        assert row["trim_fraction"] == pytest.approx(1 / 3)

    def test_transfer_events_win_over_flow_rows(self):
        events = synthetic_events() + [
            ev("channel.transfer", 1.0, message_id=12, worker=0,
               fct_s=0.4, trim_fraction=0.25, nmse=0.01),
        ]
        tl = build_timeline(events, bins=4)
        (row,) = tl.layers
        assert row["layer"] == 12
        assert row["trim_fraction"] == 0.25

    def test_blackhole_drops_get_their_own_row(self):
        events = synthetic_events() + [
            ev("switch.drop", 0.2, kind="blackhole", flow_id=500),
            ev("switch.drop", 0.2, kind="blackhole", flow_id=500),
        ]
        tl = build_timeline(events, bins=1)
        assert tl.activity["blackhole"] == [2]
        # Queue-full style drops stay in the plain row.
        assert tl.activity["drop"] == [1]

    def test_reroutes_surface_as_marks(self):
        events = synthetic_events() + [
            ev(
                "switch.reroute",
                0.3,
                switch="agg0",
                flow_id=500,
                old_hop="core1",
                new_hop="core0",
            ),
        ]
        tl = build_timeline(events, bins=4)
        assert (
            0.3,
            "switch.reroute",
            "flow_id=500, switch=agg0, old_hop=core1, new_hop=core0",
        ) in tl.marks

    def test_needs_timed_events(self):
        with pytest.raises(ValueError, match="sim_time"):
            build_timeline([ev("channel.degraded_step", None)], bins=4)
        with pytest.raises(ValueError, match="bins"):
            build_timeline(synthetic_events(), bins=0)


class TestRender:
    def test_terminal_rendering(self):
        lines = render_timeline(build_timeline(synthetic_events(), bins=10))
        text = "\n".join(lines)
        assert "s0->s1" in text
        assert "█" in text  # the peak bin
        assert "total 2" in text  # forwards
        assert "transport.surrender" in text
        assert "trim_fraction" in text

    def test_html_is_self_contained(self):
        html = timeline_html(
            build_timeline(synthetic_events(), bins=10), title="t<est"
        )
        assert html.startswith("<!doctype html>")
        assert "t&lt;est" in html  # titles are escaped
        assert "s0-&gt;s1" in html
        assert "<script" not in html
        assert "http" not in html  # no external assets


class TestCli:
    def test_record_then_render(self, tmp_path, caplog):
        out = tmp_path / "artifacts"
        rc = main(
            [
                "record",
                "flaky-link",
                "--seed",
                "3",
                "--out-dir",
                str(out),
                "--html",
                "--profile",
            ]
        )
        assert rc == 0
        for name in (
            "trace.jsonl",
            "spans.jsonl",
            "int.jsonl",
            "int_summary.json",
            "timeline.txt",
            "timeline.html",
            "profile.json",
        ):
            assert (out / name).exists(), f"missing artifact {name}"
        summary = json.loads((out / "int_summary.json").read_text())
        assert summary["packets"] > 0
        assert summary["records"] >= summary["packets"]
        profile = json.loads((out / "profile.json").read_text())
        assert profile and all("wall_s" in row for row in profile)
        assert "== congestion timeline ==" in (out / "timeline.txt").read_text()

        html_out = tmp_path / "replay.html"
        rc = main(
            [
                "render",
                str(out / "trace.jsonl"),
                "--bins",
                "20",
                "--html",
                str(html_out),
            ]
        )
        assert rc == 0
        assert html_out.read_text().startswith("<!doctype html>")

    def test_record_restores_global_telemetry(self, tmp_path):
        from repro.obs.int_telemetry import get_int_collector, int_capacity
        from repro.obs.trace import get_tracer

        before = get_tracer()
        main(["record", "flaky-link", "--out-dir", str(tmp_path / "o")])
        assert int_capacity() is None
        assert not get_int_collector().enabled
        assert get_tracer() is before
        assert not get_tracer().enabled


class TestRenderRejectsBadInput:
    """A bad trace is logged and exits 1, as ``repro-timeline report`` does."""

    def test_missing_file(self, tmp_path, caplog):
        assert main(["render", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read trace" in caplog.text

    def test_malformed_jsonl(self, tmp_path, caplog):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "switch.forward", "sim_time": 0.1}\n{not json\n')
        assert main(["render", str(path)]) == 1
        assert "not valid JSONL" in caplog.text

    def test_no_sim_time_event(self, tmp_path, caplog):
        path = tmp_path / "wall_only.jsonl"
        path.write_text(json.dumps(ev("encode", None)) + "\n")
        assert main(["render", str(path)]) == 1
        assert "no events with sim_time" in caplog.text
