"""Span-based tracing of the gradient path.

One gradient's journey — encode → packetize → switch enqueue/trim/drop
→ transport delivery → decode — becomes a stream of structured
:class:`TraceEvent` records carrying both clocks that matter here:

* ``sim_time`` — the discrete-event simulator's clock, for events that
  happen *inside* the simulated fabric (switch decisions, deliveries);
* ``wall_time`` + ``duration_s`` — the host's clock, for stages that
  cost real CPU (encode, decode, aggregate).

Tracing is **off by default** (a disabled tracer costs one attribute
check per call site) and is enabled either programmatically
(:func:`trace_to`) or by pointing ``REPRO_OBS_TRACE`` at a JSONL path.
Events stream to the JSONL sink as they happen, so a crashed run still
leaves a usable trace.

Event names used by the built-in instrumentation are listed in
``docs/observability.md``; they are plain strings, so new layers can
add their own without touching this module.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional

__all__ = [
    "TraceEvent",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "trace_to",
]


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


class Tracer:
    """Collects :class:`TraceEvent` records and streams them to JSONL.

    Args:
        enabled: record events (False = every call is a cheap no-op).
        jsonl_path: stream each event to this file as one JSON line
            (opened lazily on the first event).
        keep_events: also keep events in ``self.events`` for in-process
            report generation; cap with ``max_events``.
        max_events: in-memory cap — the JSONL sink keeps receiving
            events after the cap, the list just stops growing.
    """

    def __init__(
        self,
        enabled: bool = False,
        jsonl_path: Optional[str] = None,
        keep_events: bool = True,
        max_events: int = 1_000_000,
    ) -> None:
        self.enabled = enabled
        self.jsonl_path = jsonl_path
        self.keep_events = keep_events
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.dropped_events = 0
        self._seq = 0
        self._sink: Optional[IO[str]] = None

    # -- lifecycle ----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def close(self) -> None:
        """Flush and close the JSONL sink (idempotent)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def clear(self) -> None:
        self.events.clear()
        self.dropped_events = 0

    # -- recording ----------------------------------------------------------

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
        if self.keep_events:
            if len(self.events) < self.max_events:
                self.events.append(ev)
            else:
                self.dropped_events += 1
        if self.jsonl_path is not None:
            if self._sink is None:
                # Truncate: each tracer owns its file, and a rerun to the
                # same path must not double-count the previous run.
                self._sink = open(self.jsonl_path, "w", encoding="utf-8")
            self._sink.write(json.dumps(ev.to_json()) + "\n")
        return ev

    @contextmanager
    def span(self, name: str, sim_time: Optional[float] = None, **fields: Any):
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

    # -- export -------------------------------------------------------------

    def to_jsonl(self, path: str) -> int:
        """Write the in-memory events to ``path``; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            for ev in self.events:
                fh.write(json.dumps(ev.to_json()) + "\n")
        return len(self.events)


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


def trace_to(path: Optional[str], keep_events: bool = True) -> Tracer:
    """Enable process-wide tracing, streaming to ``path`` (None = memory only)."""
    tracer = Tracer(enabled=True, jsonl_path=path, keep_events=keep_events)
    set_tracer(tracer)
    return tracer
