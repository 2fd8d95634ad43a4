"""Exporters: JSONL IO, per-run report, static HTML timeline.

Two consumers, two formats:

* offline analysis wants the raw JSONL trace (:func:`read_jsonl`);
* a human at the end of a run wants :func:`build_report` — the
  paper-shaped summary (trim fraction, bytes saved, queue percentiles,
  NMSE, per-stage time breakdown) computed *from the trace events*, so
  the same report renders live in-process or later from a file.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from html import escape
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - timeline imports this module
    from .timeline import Timeline

__all__ = ["read_jsonl", "build_report", "timeline_html"]


def _fmt_num(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# -- JSONL -------------------------------------------------------------------


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a trace file written by :class:`repro.obs.trace.Tracer`."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# -- per-run report ----------------------------------------------------------


def _percentile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolation percentile on pre-sorted data."""
    if not sorted_values:
        return 0.0
    rank = q / 100.0 * (len(sorted_values) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return sorted_values[lo]
    frac = rank - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def _rows(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    out = [
        "  " + " | ".join(h.ljust(w) for h, w in zip(cells[0], widths)),
        "  " + "-+-".join("-" * w for w in widths),
    ]
    for row in cells[1:]:
        out.append("  " + " | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return out


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds * 1e6:.1f} us"


def _fmt_bytes(n: float) -> str:
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("kB", 1e3)):
        if abs(n) >= scale:
            return f"{n / scale:.2f} {unit}"
    return f"{int(n)} B"


def build_report(
    events: Sequence[Mapping[str, Any]],
    registry: Optional[MetricsRegistry] = None,
    title: str = "run report",
) -> str:
    """Human-readable per-run summary from a trace event stream.

    ``events`` are dicts in the JSONL schema (``TraceEvent.to_json``):
    in-process callers pass ``[e.to_json() for e in tracer.events]``,
    the CLI passes :func:`read_jsonl` output.  Pass a registry to append
    a metrics snapshot section.
    """
    lines: List[str] = [f"== {title} =="]

    sim_times = [e["sim_time"] for e in events if e.get("sim_time") is not None]
    span = f", sim span {_fmt_s(max(sim_times) - min(sim_times))}" if sim_times else ""
    lines.append(f"{len(events)} trace events{span}")

    by_name: Dict[str, List[Mapping[str, Any]]] = defaultdict(list)
    for ev in events:
        by_name[ev.get("name", "?")].append(ev)

    # -- switch behaviour: the paper's central rate claims ------------------
    forwards = len(by_name.get("switch.forward", ()))
    trims = len(by_name.get("switch.trim", ()))
    drops = len(by_name.get("switch.drop", ()))
    total = forwards + trims + drops
    if total:
        bytes_saved = sum(
            ev.get("fields", {}).get("bytes_saved", 0)
            for ev in by_name.get("switch.trim", ())
        )
        drop_kinds: Dict[str, int] = defaultdict(int)
        for ev in by_name.get("switch.drop", ()):
            drop_kinds[ev.get("fields", {}).get("kind", "?")] += 1
        lines.append("")
        lines.append("-- switch --")
        lines.append(
            f"  enqueues {total}: forwarded {forwards}, "
            f"trimmed {trims}, dropped {drops}"
        )
        lines.append(
            f"  trim fraction {trims / total:.4f}, "
            f"drop fraction {drops / total:.4f}, "
            f"bytes saved by trimming {_fmt_bytes(bytes_saved)}"
        )
        if drop_kinds:
            kinds = ", ".join(f"{k}: {v}" for k, v in sorted(drop_kinds.items()))
            lines.append(f"  drops by kind: {kinds}")

    # -- fabric self-healing ------------------------------------------------
    reroutes = by_name.get("switch.reroute", ())
    fabric_drops: Dict[str, int] = defaultdict(int)
    for ev in by_name.get("switch.drop", ()):
        kind = ev.get("fields", {}).get("kind")
        if kind in ("blackhole", "switch-down", "port-blackout", "no-route"):
            fabric_drops[str(kind)] += 1
    if reroutes or fabric_drops:
        lines.append("")
        lines.append("-- fabric self-healing --")
        per_switch: Dict[str, int] = defaultdict(int)
        for ev in reroutes:
            per_switch[str(ev.get("fields", {}).get("switch", "?"))] += 1
        detail = (
            " (" + ", ".join(f"{s}: {n}" for s, n in sorted(per_switch.items())) + ")"
            if per_switch
            else ""
        )
        lines.append(f"  flow reroutes: {len(reroutes)}{detail}")
        if fabric_drops:
            lines.append(
                "  failure drops: "
                + ", ".join(f"{k}: {v}" for k, v in sorted(fabric_drops.items()))
            )

    # -- queue depth percentiles -------------------------------------------
    queue_samples: Dict[str, List[float]] = defaultdict(list)
    for ev in by_name.get("queue.sample", ()):
        fields = ev.get("fields", {})
        queue_samples[str(fields.get("queue", "?"))].append(
            float(fields.get("bytes_queued", 0))
        )
    if queue_samples:
        lines.append("")
        lines.append("-- queue depth (bytes) --")
        rows = []
        for label in sorted(queue_samples):
            values = sorted(queue_samples[label])
            rows.append(
                [
                    label,
                    len(values),
                    int(_percentile(values, 50)),
                    int(_percentile(values, 90)),
                    int(_percentile(values, 99)),
                    int(values[-1]),
                ]
            )
        lines.extend(_rows(["queue", "samples", "p50", "p90", "p99", "max"], rows))

    # -- transport deliveries ----------------------------------------------
    deliveries = by_name.get("transport.deliver", ())
    if deliveries:
        durations = [
            float(ev["fields"]["fct_s"])
            for ev in deliveries
            if "fct_s" in ev.get("fields", {})
        ]
        lines.append("")
        lines.append("-- transport --")
        line = f"  messages delivered: {len(deliveries)}"
        if durations:
            line += (
                f", completion time mean {_fmt_s(sum(durations) / len(durations))}"
                f" / max {_fmt_s(max(durations))}"
            )
        lines.append(line)
        retx = sum(
            ev.get("fields", {}).get("retransmissions", 0) for ev in deliveries
        )
        lines.append(f"  retransmissions: {retx}")

    # -- gradient quality ---------------------------------------------------
    nmse_values = [
        float(ev["fields"]["nmse"])
        for ev in events
        if "nmse" in ev.get("fields", {})
        and ev["fields"]["nmse"] is not None
        and math.isfinite(float(ev["fields"]["nmse"]))
    ]
    if nmse_values:
        lines.append("")
        lines.append("-- gradient quality --")
        lines.append(
            f"  NMSE over {len(nmse_values)} decodes: "
            f"mean {sum(nmse_values) / len(nmse_values):.4g}, "
            f"worst {max(nmse_values):.4g}, last {nmse_values[-1]:.4g}"
        )

    # -- per-stage wall-time breakdown -------------------------------------
    staged: Dict[str, List[float]] = defaultdict(list)
    for ev in events:
        if ev.get("duration_s") is not None:
            staged[ev.get("name", "?")].append(float(ev["duration_s"]))
    if staged:
        lines.append("")
        lines.append("-- per-stage wall time --")
        rows = []
        grand_total = sum(sum(v) for v in staged.values())
        for name in sorted(staged, key=lambda n: -sum(staged[n])):
            durations = staged[name]
            stage_total = sum(durations)
            share = stage_total / grand_total if grand_total else 0.0
            rows.append(
                [
                    name,
                    len(durations),
                    _fmt_s(stage_total),
                    _fmt_s(stage_total / len(durations)),
                    f"{share:.1%}",
                ]
            )
        lines.extend(_rows(["stage", "events", "total", "mean", "share"], rows))

    # -- optional metrics snapshot ------------------------------------------
    if registry is not None:
        snapshot = registry.snapshot()
        flat_rows = [
            [name, label or "-", _fmt_num(value)]
            for name, family in snapshot.items()
            for label, value in family.items()
        ]
        if flat_rows:
            lines.append("")
            lines.append("-- metrics snapshot --")
            lines.extend(_rows(["metric", "labels", "value"], flat_rows))

    return "\n".join(lines)


# -- static HTML timeline ----------------------------------------------------

_TIMELINE_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em;
       background: #fafafa; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.6em; }
table.grid { border-collapse: collapse; }
table.grid td, table.grid th { padding: 0; }
table.grid th.label { text-align: right; padding-right: 0.6em;
       font-weight: 500; font-size: 0.8em; white-space: nowrap; }
table.grid td.cell { width: 10px; height: 18px; min-width: 10px; }
table.grid td.peak { padding-left: 0.6em; font-size: 0.75em; color: #666;
       white-space: nowrap; }
table.data { border-collapse: collapse; font-size: 0.85em; }
table.data td, table.data th { border: 1px solid #ddd; padding: 2px 8px;
       text-align: left; }
ul.marks { font-size: 0.85em; }
p.meta { color: #666; font-size: 0.85em; }
""".strip()

#: Row key -> RGB used for the activity heat rows.
_ROW_COLORS = {
    "queue": (31, 119, 180),
    "forward": (44, 160, 44),
    "trim": (255, 127, 14),
    "drop": (214, 39, 40),
    "blackhole": (64, 64, 64),
    "retransmit": (148, 103, 189),
}


def _heat_row(
    label: str, values: Sequence[float], rgb: Sequence[int], peak_text: str
) -> str:
    peak = max(values) if values else 0.0
    cells = []
    for v in values:
        alpha = 0.0 if peak <= 0 else max(0.0, min(v / peak, 1.0))
        style = (
            f"background: rgba({rgb[0]},{rgb[1]},{rgb[2]},{alpha:.3f});"
            if alpha > 0
            else "background: #eee;"
        )
        cells.append(f'<td class="cell" style="{style}" title="{_fmt_num(v)}"></td>')
    return (
        f'<tr><th class="label">{escape(label)}</th>{"".join(cells)}'
        f'<td class="peak">{escape(peak_text)}</td></tr>'
    )


def timeline_html(timeline: "Timeline", title: str = "congestion timeline") -> str:
    """Render a :class:`~repro.obs.timeline.Timeline` as one static HTML page.

    Self-contained (inline CSS, no scripts, no external assets) so CI
    can upload it as an artifact and it renders anywhere.
    """
    tl = timeline
    parts: List[str] = [
        "<!doctype html>",
        '<html><head><meta charset="utf-8">',
        f"<title>{escape(title)}</title>",
        f"<style>{_TIMELINE_CSS}</style>",
        "</head><body>",
        f"<h1>{escape(title)}</h1>",
        f'<p class="meta">{tl.events_seen} trace events, sim span '
        f"{_fmt_s(tl.t1 - tl.t0)} in {tl.bins} bins of {_fmt_s(tl.bin_s)} "
        f"(t0 = {tl.t0:.6f} s)</p>",
    ]
    if tl.queues:
        parts.append("<h2>Queue depth (peak bytes per bin)</h2>")
        parts.append('<table class="grid">')
        for label in sorted(tl.queues):
            series = tl.queues[label]
            parts.append(
                _heat_row(
                    label,
                    series,
                    _ROW_COLORS["queue"],
                    f"peak {_fmt_bytes(max(series))}",
                )
            )
        parts.append("</table>")
    if tl.activity:
        parts.append("<h2>Switch / transport activity (events per bin)</h2>")
        parts.append('<table class="grid">')
        for row in ("forward", "trim", "drop", "blackhole", "retransmit"):
            series = tl.activity.get(row)
            if series is None:
                continue
            parts.append(
                _heat_row(
                    row,
                    [float(v) for v in series],
                    _ROW_COLORS[row],
                    f"total {sum(series)}",
                )
            )
        parts.append("</table>")
    if tl.marks:
        parts.append("<h2>Events</h2>")
        parts.append('<ul class="marks">')
        for t, name, detail in tl.marks:
            suffix = f" ({escape(detail)})" if detail else ""
            parts.append(f"<li>t={t:.6f} s — {escape(name)}{suffix}</li>")
        parts.append("</ul>")
    if tl.layers:
        headers = list(tl.layers[0].keys())
        label = "Per-layer" if "layer" in headers else "Per-flow"
        parts.append(f"<h2>{label} trimming</h2>")
        parts.append('<table class="data"><tr>')
        parts.extend(f"<th>{escape(str(h))}</th>" for h in headers)
        parts.append("</tr>")
        for row in tl.layers:
            parts.append("<tr>")
            for key in headers:
                value = row.get(key)
                text = f"{value:.4f}" if isinstance(value, float) else str(value)
                parts.append(f"<td>{escape(text)}</td>")
            parts.append("</tr>")
        parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
