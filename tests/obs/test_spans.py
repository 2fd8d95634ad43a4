"""Tracer spans: lifecycle, parenting, determinism, global accessors."""

import json

from repro.obs import trace
from repro.obs.trace import Tracer, get_tracer, set_tracer, trace_to


class TestLifecycle:
    def test_disabled_is_noop(self):
        tracer = Tracer(enabled=False)
        sid = tracer.begin("x", t=0.0)
        assert sid is None
        tracer.end(sid, t=1.0)  # tolerated
        assert tracer.spans == []

    def test_begin_end_records_interval(self):
        tracer = Tracer(enabled=True)
        sid = tracer.begin("transport.message", t=0.5, flow_id=7)
        assert tracer.open_spans()[0].name == "transport.message"
        tracer.end(sid, t=1.5, outcome="delivered")
        (span,) = tracer.spans
        assert span.duration == 1.0
        assert span.attrs == {"flow_id": 7, "outcome": "delivered"}
        assert tracer.open_spans() == []

    def test_end_unknown_id_is_ignored(self):
        tracer = Tracer(enabled=True)
        tracer.end(12345, t=1.0)
        tracer.end(None)
        assert tracer.spans == []

    def test_times_optional(self):
        tracer = Tracer(enabled=True)
        sid = tracer.begin("collective.aggregate")
        tracer.end(sid)
        (span,) = tracer.spans
        assert span.start is None and span.end is None
        assert span.duration is None
        assert "duration_s" not in span.to_json()

    def test_max_spans_cap(self, monkeypatch, tmp_path):
        monkeypatch.setattr(trace, "_MAX_RECORDS", 2)
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(enabled=True, spans_path=str(path))
        for i in range(5):
            tracer.end(tracer.begin("e", t=float(i)), t=float(i))
        tracer.close()
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3
        assert len(path.read_text().splitlines()) == 5  # the sink keeps streaming


class TestParenting:
    def test_context_sets_default_parent(self):
        tracer = Tracer(enabled=True)
        root = tracer.begin("train.round", t=0.0)
        with tracer.context(root):
            child = tracer.begin("channel.transfer", t=0.1)
            with tracer.context(child):
                leaf = tracer.begin("transport.message", t=0.2)
                tracer.end(leaf, t=0.3)
            tracer.end(child, t=0.4)
        tracer.end(root, t=0.5)
        by = {s.name: s for s in tracer.spans}
        assert by["train.round"].parent_id is None
        assert by["channel.transfer"].parent_id == by["train.round"].span_id
        assert by["transport.message"].parent_id == by["channel.transfer"].span_id
        children = [s for s in tracer.spans if s.parent_id == by["train.round"].span_id]
        assert children == [by["channel.transfer"]]

    def test_explicit_parent_beats_context(self):
        tracer = Tracer(enabled=True)
        outer = tracer.begin("a", t=0.0)
        with tracer.context(outer):
            explicit = tracer.begin("b", t=0.1, parent_id=999)
            forced_root = tracer.begin("c", t=0.1, parent_id=None)
            tracer.end(explicit, t=0.2)
            tracer.end(forced_root, t=0.2)
        tracer.end(outer, t=0.3)
        by = {s.name: s for s in tracer.spans}
        assert by["b"].parent_id == 999
        assert by["c"].parent_id is None

    def test_context_with_none_is_transparent(self):
        tracer = Tracer(enabled=True)
        with tracer.context(None):
            sid = tracer.begin("x", t=0.0)
        tracer.end(sid, t=1.0)
        assert tracer.spans[0].parent_id is None


class TestJsonl:
    def test_streams_ended_spans_sorted_keys(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(enabled=True, spans_path=str(path))
        sid = tracer.begin("transport.packet", t=0.25, seq=3)
        tracer.end(sid, t=0.75, acked=True)
        tracer.close()
        (line,) = path.read_text().splitlines()
        doc = json.loads(line)
        assert doc["name"] == "transport.packet"
        assert doc["duration_s"] == 0.5
        assert doc["attrs"] == {"acked": True, "seq": 3}
        assert list(doc) == sorted(doc)  # sorted keys -> byte-stable

    def test_same_sequence_twice_is_byte_identical(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.jsonl"
            tracer = Tracer(enabled=True, spans_path=str(path))
            root = tracer.begin("train.round", t=0.0, epoch=1)
            with tracer.context(root):
                child = tracer.begin("channel.transfer", t=0.1)
                tracer.end(child, t=0.9, outcome="delivered")
            tracer.end(root, t=1.0)
            tracer.close()
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestGlobals:
    def test_default_tracer_disabled(self):
        assert not get_tracer().enabled

    def test_install_and_restore(self, tmp_path):
        before = get_tracer()
        tracer = trace_to(None, spans_path=str(tmp_path / "s.jsonl"))
        try:
            assert get_tracer() is tracer
            assert tracer.enabled
            tracer.end(tracer.begin("x", t=0.0), t=1.0)
        finally:
            tracer.close()
            previous = set_tracer(before)
            assert previous is tracer
        assert json.loads((tmp_path / "s.jsonl").read_text())["name"] == "x"


class TestOneRecorder:
    def test_one_switch_governs_events_and_spans(self):
        tracer = Tracer(enabled=False)
        assert tracer.begin("x", t=0.0) is None
        assert tracer.event("x") is None
        tracer.enabled = True
        assert tracer.begin("x", t=0.0) == 1
        assert tracer.event("x").seq == 1

    def test_span_ids_and_event_seq_count_separately(self):
        tracer = Tracer(enabled=True)
        tracer.event("a")
        tracer.event("b")
        sid = tracer.begin("round", t=0.0)
        tracer.event("c")
        tracer.end(sid, t=1.0)
        assert sid == 1
        assert [e.seq for e in tracer.events] == [1, 2, 3]

    def test_each_sink_gets_only_its_own_records(self, tmp_path):
        events, spans = tmp_path / "trace.jsonl", tmp_path / "spans.jsonl"
        tracer = Tracer(enabled=True, jsonl_path=str(events), spans_path=str(spans))
        sid = tracer.begin("transport.message", t=0.0)
        tracer.event("switch.forward", sim_time=0.5)
        tracer.end(sid, t=1.0)
        tracer.close()
        assert [json.loads(l)["name"] for l in events.read_text().splitlines()] == [
            "switch.forward"
        ]
        (span,) = [json.loads(l) for l in spans.read_text().splitlines()]
        assert span == {
            "duration_s": 1.0,
            "end": 1.0,
            "name": "transport.message",
            "span_id": 1,
            "start": 0.0,
        }
