"""Tracer: events, wall-clock stage spans, JSONL streaming, global accessors."""

import json

from repro.obs import trace
from repro.obs.trace import Tracer, get_tracer, set_tracer, trace_to


class TestTracer:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.event("x") is None
        assert tracer.events == []

    def test_event_fields_and_sequence(self):
        tracer = Tracer(enabled=True)
        tracer.event("switch.trim", sim_time=1.5, switch="s0", bytes_saved=100)
        tracer.event("switch.drop", kind="buffer-overflow")
        assert [e.name for e in tracer.events] == ["switch.trim", "switch.drop"]
        assert tracer.events[0].seq < tracer.events[1].seq
        assert tracer.events[0].sim_time == 1.5
        assert tracer.events[0].fields["bytes_saved"] == 100

    def test_span_measures_duration(self):
        tracer = Tracer(enabled=True)
        with tracer.span("encode", codec="rht") as fields:
            fields["coords"] = 42
        (ev,) = tracer.events
        assert ev.name == "encode"
        assert ev.duration_s >= 0.0
        assert ev.fields == {"codec": "rht", "coords": 42}

    def test_span_disabled_still_yields(self):
        tracer = Tracer(enabled=False)
        with tracer.span("encode") as fields:
            fields["x"] = 1
        assert tracer.events == []

    def test_max_events_cap(self, monkeypatch):
        monkeypatch.setattr(trace, "_MAX_RECORDS", 2)
        tracer = Tracer(enabled=True)
        for i in range(5):
            tracer.event("e", i=i)
        assert len(tracer.events) == 2
        assert tracer.dropped == 3

    def test_jsonl_streaming_and_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(enabled=True, jsonl_path=path)
        tracer.event("a", sim_time=0.25, n=1)
        with tracer.span("b"):
            pass
        tracer.close()
        lines = [json.loads(l) for l in open(path)]
        assert [l["name"] for l in lines] == ["a", "b"]
        assert lines[0]["sim_time"] == 0.25
        assert lines[0]["fields"] == {"n": 1}
        assert "duration_s" in lines[1]

    def test_jsonl_sink_truncates_a_previous_run(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for run in range(2):
            tracer = Tracer(enabled=True, jsonl_path=str(path))
            tracer.event("a", run=run)
            tracer.close()
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["fields"] == {"run": 1}


class TestGlobals:
    def test_default_tracer_disabled(self):
        assert not get_tracer().enabled

    def test_trace_to_installs_and_restores(self, tmp_path):
        previous = get_tracer()
        tracer = trace_to(str(tmp_path / "t.jsonl"))
        try:
            assert get_tracer() is tracer
            assert tracer.enabled
        finally:
            tracer.close()
            set_tracer(previous)
        assert get_tracer() is previous

