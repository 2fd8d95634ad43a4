"""Unified observability: metrics, tracing, INT telemetry, exporters.

The paper's claims are rate claims — trim fraction, bytes saved, NMSE,
per-stage time — and this package is where the pipeline reports them:

* :mod:`repro.obs.metrics` — the process-wide registry of counters,
  each a published view of one plain tally (a ``SwitchStats``, a
  ``ChannelStats``, a sender's tally) read on demand;
* :mod:`repro.obs.trace` — the one recorder: point events along the
  gradient path (encode → packetize → switch enqueue/trim/drop →
  transport delivery → decode) with sim-time and wall-time, and causal
  spans of the round → message → packet lifecycle on the modeled clock
  (byte-identical per seed), each streamed to its own JSONL sink;
* :mod:`repro.obs.int_telemetry` — in-band network telemetry: switches
  stamp per-hop congestion records into a trim-survivable metadata band
  of every gradient packet; receivers sink them into per-(job, layer,
  hop) series;
* :mod:`repro.obs.profile` — event-loop profiler attributing modeled
  and wall time to pipeline stages;
* :mod:`repro.obs.export` — JSONL IO, the human-readable per-run
  report, and the static HTML timeline;
* :mod:`repro.obs.timeline` — ``repro-timeline``: the per-round
  congestion timeline, and ``repro-timeline report trace.jsonl``.

Typical use::

    from repro.obs import trace_to, get_registry, build_report

    tracer = trace_to("trace.jsonl", spans_path="spans.jsonl")
    ...run a congested simulation...
    print(build_report([e.to_json() for e in tracer.events],
                       registry=get_registry()))
"""

from .export import build_report, read_jsonl, timeline_html
from .int_telemetry import (
    INTCollector,
    INTExtension,
    INTHopRecord,
    disable_int,
    enable_int,
    get_int_collector,
    int_capacity,
    set_int_collector,
)
from .metrics import Counter, MetricsRegistry, get_registry, set_registry
from .profile import SimProfiler
from .trace import Span, TraceEvent, Tracer, get_tracer, set_tracer, trace_to

__all__ = [
    "Counter",
    "INTCollector",
    "INTExtension",
    "INTHopRecord",
    "MetricsRegistry",
    "SimProfiler",
    "Span",
    "TraceEvent",
    "Tracer",
    "build_report",
    "disable_int",
    "enable_int",
    "get_int_collector",
    "get_registry",
    "get_tracer",
    "int_capacity",
    "read_jsonl",
    "set_int_collector",
    "set_registry",
    "set_tracer",
    "timeline_html",
    "trace_to",
]
