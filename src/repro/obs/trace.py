"""One recorder for the gradient path: point events and causal spans.

One gradient's journey — encode → packetize → switch enqueue/trim/drop
→ transport delivery → decode — becomes a stream of structured
:class:`TraceEvent` records carrying both clocks that matter here:

* ``sim_time`` — the discrete-event simulator's clock, for events that
  happen *inside* the simulated fabric (switch decisions, deliveries);
* ``wall_time`` + ``duration_s`` — the host's clock, for stages that
  cost real CPU (encode, decode, aggregate).

The same :class:`Tracer` records *lifecycles* as :class:`Span` records:
a span is begun when work starts and ended when it resolves (delivered,
acknowledged, surrendered), and its parent makes the causal tree of a
training run::

    train.round
      └─ collective.aggregate
           └─ channel.transfer
                └─ transport.message
                     └─ transport.packet  (one per emission)

Span timestamps come from the modeled clock only, so two runs of the
same (scenario, seed) emit byte-identical span JSONL.  Parentage is an
explicit context stack: callers wrap the child-producing region in
:meth:`Tracer.context` and any span begun inside inherits the enclosing
span as its parent, without the layers threading ids through each
other's signatures.

Tracing is **off by default** (a disabled tracer costs one attribute
check per call site) and is enabled with :func:`trace_to`.  Events and
ended spans stream to their JSONL sinks as they happen, so a crashed
run still leaves a usable trace.

Event names used by the built-in instrumentation are listed in
``docs/observability.md``; they are plain strings, so new layers can
add their own without touching this module.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterator, List, Optional, TypeVar

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "trace_to",
]

#: In-memory cap on each of ``Tracer.events`` and ``Tracer.spans``: the
#: sinks keep streaming past it, the lists stop growing and ``dropped``
#: counts what they missed, so a long traced run stays bounded.
_MAX_RECORDS = 1_000_000


@dataclass
class TraceEvent:
    """One structured event on the gradient path."""

    name: str
    seq: int
    wall_time: float
    sim_time: Optional[float] = None
    duration_s: Optional[float] = None
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "seq": self.seq,
            "wall_time": self.wall_time,
        }
        if self.sim_time is not None:
            record["sim_time"] = self.sim_time
        if self.duration_s is not None:
            record["duration_s"] = self.duration_s
        if self.fields:
            record["fields"] = self.fields
        return record


@dataclass
class Span:
    """One completed (or in-flight) interval of modeled time."""

    span_id: int
    name: str
    parent_id: Optional[int] = None
    start: Optional[float] = None
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        """Modeled seconds between start and end, when both are known."""
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    def to_json(self) -> Dict[str, Any]:
        """JSON-ready dict; unknown times/parents are omitted."""
        doc: Dict[str, Any] = {"span_id": self.span_id, "name": self.name}
        if self.parent_id is not None:
            doc["parent_id"] = self.parent_id
        if self.start is not None:
            doc["start"] = self.start
        if self.end is not None:
            doc["end"] = self.end
        duration = self.duration
        if duration is not None:
            doc["duration_s"] = duration
        if self.attrs:
            doc["attrs"] = self.attrs
        return doc


_R = TypeVar("_R", TraceEvent, Span)

#: Sentinel distinguishing "no parent given, use the context stack"
#: from an explicit ``parent_id=None`` (a deliberate root span).
_INHERIT: Any = object()


class Tracer:
    """Records events and spans in memory and streams them to JSONL.

    Args:
        enabled: record (False = every call is a cheap no-op).
        jsonl_path: stream each event to this file as one JSON line
            (opened lazily on the first event).
        spans_path: stream each *ended* span to this file as one
            sorted-keys JSON line (modeled time only — byte-identical
            across same-seed runs).
    """

    def __init__(
        self,
        enabled: bool = False,
        jsonl_path: Optional[str] = None,
        spans_path: Optional[str] = None,
    ) -> None:
        self.enabled = enabled
        self.jsonl_path = jsonl_path
        self.spans_path = spans_path
        self.events: List[TraceEvent] = []
        self.spans: List[Span] = []
        self.dropped = 0
        self._seq = 0
        self._next_span_id = 1
        self._open: Dict[int, Span] = {}
        self._stack: List[int] = []
        self._sink: Optional[IO[str]] = None
        self._spans_sink: Optional[IO[str]] = None

    def close(self) -> None:
        """Flush and close both JSONL sinks (idempotent)."""
        for sink in (self._sink, self._spans_sink):
            if sink is not None:
                sink.close()
        self._sink = self._spans_sink = None

    def _keep(self, records: List[_R], record: _R) -> None:
        if len(records) < _MAX_RECORDS:
            records.append(record)
        else:
            self.dropped += 1

    # -- events -------------------------------------------------------------

    def event(
        self,
        name: str,
        sim_time: Optional[float] = None,
        duration_s: Optional[float] = None,
        **fields: Any,
    ) -> Optional[TraceEvent]:
        """Record one event; returns it, or None when disabled."""
        if not self.enabled:
            return None
        self._seq += 1
        ev = TraceEvent(
            name=name,
            seq=self._seq,
            wall_time=time.time(),
            sim_time=sim_time,
            duration_s=duration_s,
            fields=fields,
        )
        self._keep(self.events, ev)
        if self.jsonl_path is not None:
            if self._sink is None:
                # Truncate: each tracer owns its file, and a rerun to the
                # same path must not double-count the previous run.
                self._sink = open(self.jsonl_path, "w", encoding="utf-8")
            self._sink.write(json.dumps(ev.to_json()) + "\n")
        return ev

    @contextmanager
    def span(
        self, name: str, sim_time: Optional[float] = None, **fields: Any
    ) -> Iterator[Dict[str, Any]]:
        """Wall-clock a stage; emits one event with ``duration_s`` set.

        Yields the mutable fields dict so the body can attach results::

            with tracer.span("encode", codec="rht") as f:
                enc = codec.encode(flat)
                f["coords"] = enc.length
        """
        if not self.enabled:
            yield fields
            return
        start = time.perf_counter()
        try:
            yield fields
        finally:
            self.event(
                name,
                sim_time=sim_time,
                duration_s=time.perf_counter() - start,
                **fields,
            )

    # -- causal spans -------------------------------------------------------

    def begin(
        self,
        name: str,
        t: Optional[float] = None,
        parent_id: Optional[int] = _INHERIT,
        **attrs: Any,
    ) -> Optional[int]:
        """Open a span; returns its id, or None when disabled.

        ``parent_id`` defaults to the innermost :meth:`context` span;
        pass ``parent_id=None`` explicitly to force a root span.
        """
        if not self.enabled:
            return None
        if parent_id is _INHERIT:
            parent_id = self._stack[-1] if self._stack else None
        span_id = self._next_span_id
        self._next_span_id += 1
        self._open[span_id] = Span(
            span_id=span_id, name=name, parent_id=parent_id, start=t, attrs=dict(attrs)
        )
        return span_id

    def end(self, span_id: Optional[int], t: Optional[float] = None, **attrs: Any) -> None:
        """Close a span and emit it; unknown/None ids are ignored (so
        callers can hold ``Optional[int]`` without re-checking)."""
        if not self.enabled or span_id is None:
            return
        span = self._open.pop(span_id, None)
        if span is None:
            return
        span.end = t
        if attrs:
            span.attrs.update(attrs)
        self._keep(self.spans, span)
        if self.spans_path is not None:
            if self._spans_sink is None:
                self._spans_sink = open(self.spans_path, "w", encoding="utf-8")
            self._spans_sink.write(json.dumps(span.to_json(), sort_keys=True) + "\n")

    @contextmanager
    def context(self, span_id: Optional[int]) -> Iterator[None]:
        """Make ``span_id`` the default parent for spans begun inside."""
        if not self.enabled or span_id is None:
            yield
            return
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended (id order)."""
        return [self._open[sid] for sid in sorted(self._open)]


_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled unless someone enabled it)."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process default; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def trace_to(path: Optional[str], spans_path: Optional[str] = None) -> Tracer:
    """Enable process-wide tracing: events to ``path``, ended spans to
    ``spans_path`` (None = memory only)."""
    tracer = Tracer(enabled=True, jsonl_path=path, spans_path=spans_path)
    set_tracer(tracer)
    return tracer
