"""``repro-timeline``: per-round congestion timeline for the trim pipeline.

Turns a trace event stream (live or from a ``trace.jsonl`` file) into a
time-binned picture of one run:

* a **queue-depth heatmap** per watched egress queue (block characters
  in the terminal, a color grid in the static HTML export);
* per-bin **forward / trim / drop / blackhole / retransmit** activity
  rows — blackhole drops (packets a stale FIB hashed onto a dead leg)
  get their own row so fabric failures read differently from plain
  queue-full congestion;
* **event markers** for surrenders, ECMP failover reroutes, link-down
  losses and other exceptional moments;
* a **per-layer table** — trim fraction per gradient message when
  ``channel.transfer`` events are present, per-flow trim counts
  otherwise.

Subcommands:

* ``repro-timeline record <scenario>`` — run a fault preset with full
  telemetry armed (one Tracer for events and spans, INT collector,
  QueueMonitor) and render the timeline from the recorded run.
  Artifacts land in ``--out-dir``: ``trace.jsonl``, ``spans.jsonl``,
  ``int.jsonl``, ``int_summary.json``, ``timeline.txt`` and (with
  ``--html``) ``timeline.html``.  Same (scenario, transport, seed) → byte-identical
  span/INT JSONL.
* ``repro-timeline render <trace.jsonl>`` — rebuild the timeline from a
  previously recorded trace; a missing or malformed file, or one with
  no ``sim_time`` event, is logged and exits 1.

``--profile`` (record only) attaches the
:class:`~repro.obs.profile.SimProfiler` event-loop profiler and reports
where the simulation's modeled and wall time went, per pipeline stage.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import int_at_least, number_in
from .export import _fmt_s, _rows, read_jsonl, timeline_html
from .int_telemetry import (
    DEFAULT_INT_CAPACITY,
    INTCollector,
    disable_int,
    enable_int,
    get_int_collector,
    set_int_collector,
)
from .profile import SimProfiler
from .trace import Tracer, set_tracer

logger = logging.getLogger("repro.obs.timeline")

__all__ = ["Timeline", "build_timeline", "render_timeline", "main"]

#: Depth glyphs, blank → full block.
_BLOCKS = " ▁▂▃▄▅▆▇█"

#: Events folded into the per-bin activity rows: name -> row key.
_ACTIVITY = {
    "switch.forward": "forward",
    "switch.trim": "trim",
    "link.trim": "trim",
    "switch.drop": "drop",
    "link.drop": "drop",
    "link.down_loss": "drop",
    "transport.retransmit": "retransmit",
}

#: Activity rows in render order.
_ACTIVITY_ROWS = ("forward", "trim", "drop", "blackhole", "retransmit")

#: Events surfaced as point markers under the heatmap.
_MARKS = ("transport.surrender", "channel.degraded_step", "switch.reroute")

#: Mark fields surfaced in the detail suffix, in this order.
_MARK_FIELDS = ("flow_id", "worker", "reason", "switch", "old_hop", "new_hop")


@dataclass
class Timeline:
    """A binned view of one run's congestion behaviour."""

    t0: float
    t1: float
    bins: int
    bin_s: float
    #: queue label -> peak bytes_queued per bin.
    queues: Dict[str, List[float]] = field(default_factory=dict)
    #: activity row -> event count per bin (forward/trim/drop/retransmit).
    activity: Dict[str, List[int]] = field(default_factory=dict)
    #: (sim_time, event name, detail) for exceptional moments.
    marks: List[Tuple[float, str, str]] = field(default_factory=list)
    #: per-layer rows (dicts; schema depends on the available events).
    layers: List[Dict[str, Any]] = field(default_factory=list)
    events_seen: int = 0


def _bin_index(t: float, t0: float, bin_s: float, bins: int) -> int:
    idx = int((t - t0) / bin_s)
    return min(max(idx, 0), bins - 1)


def build_timeline(events: Sequence[Mapping[str, Any]], bins: int = 60) -> Timeline:
    """Fold a trace event stream into a :class:`Timeline`.

    ``events`` are dicts in the ``TraceEvent.to_json`` schema; only
    events carrying ``sim_time`` participate in binning.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    sim_times = [e["sim_time"] for e in events if e.get("sim_time") is not None]
    if not sim_times:
        raise ValueError("no events with sim_time; nothing to bin")
    t0, t1 = min(sim_times), max(sim_times)
    bin_s = max((t1 - t0) / bins, 1e-12)
    tl = Timeline(t0=t0, t1=t1, bins=bins, bin_s=bin_s, events_seen=len(events))

    transfers: List[Mapping[str, Any]] = []
    flow_trims: Dict[int, int] = {}
    flow_totals: Dict[int, int] = {}
    for ev in events:
        name = ev.get("name", "?")
        t = ev.get("sim_time")
        fields = ev.get("fields", {})
        if name == "queue.sample" and t is not None:
            label = str(fields.get("queue", "?"))
            series = tl.queues.setdefault(label, [0.0] * bins)
            idx = _bin_index(t, t0, bin_s, bins)
            series[idx] = max(series[idx], float(fields.get("bytes_queued", 0)))
        elif name in _ACTIVITY and t is not None:
            key = _ACTIVITY[name]
            if name == "switch.drop" and fields.get("kind") == "blackhole":
                # Stale-FIB losses during reroute convergence are a
                # fabric-health signal, not congestion: separate row.
                key = "blackhole"
            row = tl.activity.setdefault(key, [0] * bins)
            row[_bin_index(t, t0, bin_s, bins)] += 1
        elif name in _MARKS:
            detail = ", ".join(
                f"{k}={fields[k]}" for k in _MARK_FIELDS if k in fields
            )
            tl.marks.append((t if t is not None else t1, name, detail))
        if name == "channel.transfer":
            transfers.append(ev)
        if name in ("switch.trim", "link.trim"):
            flow = fields.get("flow_id")
            if flow is not None:
                flow_trims[int(flow)] = flow_trims.get(int(flow), 0) + 1
        if name in ("switch.forward", "switch.trim", "link.trim"):
            flow = fields.get("flow_id")
            if flow is not None:
                flow_totals[int(flow)] = flow_totals.get(int(flow), 0) + 1
    tl.marks.sort()

    # Per-layer rows: gradient messages when the train loop was involved,
    # per-flow switch decisions otherwise (the fault harness's view).
    if transfers:
        for ev in transfers:
            f = ev.get("fields", {})
            tl.layers.append(
                {
                    "layer": f.get("message_id", "?"),
                    "worker": f.get("worker", "?"),
                    "fct_s": f.get("fct_s"),
                    "trim_fraction": f.get("trim_fraction"),
                    "nmse": f.get("nmse"),
                }
            )
    else:
        for flow in sorted(flow_totals):
            total = flow_totals[flow]
            trims = flow_trims.get(flow, 0)
            tl.layers.append(
                {
                    "flow": flow,
                    "switch_decisions": total,
                    "trims": trims,
                    "trim_fraction": trims / total if total else 0.0,
                }
            )
    return tl


def _spark(values: Sequence[float], peak: float) -> str:
    if peak <= 0:
        return " " * len(values)
    out = []
    for v in values:
        level = 0 if v <= 0 else 1 + int(v / peak * (len(_BLOCKS) - 2))
        out.append(_BLOCKS[min(level, len(_BLOCKS) - 1)])
    return "".join(out)


def render_timeline(tl: Timeline) -> List[str]:
    """Terminal rendering: heatmap rows, activity rows, marks, layers."""
    lines = [
        "== congestion timeline ==",
        f"{tl.events_seen} events, sim span {_fmt_s(tl.t1 - tl.t0)} "
        f"({tl.bins} bins of {_fmt_s(tl.bin_s)})",
    ]
    width = max(
        [len(label) for label in tl.queues] + [len("retransmit")] + [5]
    )
    if tl.queues:
        lines.append("")
        lines.append("-- queue depth (peak bytes per bin) --")
        for label in sorted(tl.queues):
            series = tl.queues[label]
            peak = max(series)
            lines.append(
                f"  {label.ljust(width)} |{_spark(series, peak)}| peak {int(peak)}"
            )
    if tl.activity:
        lines.append("")
        lines.append("-- switch/transport activity (events per bin) --")
        for row in _ACTIVITY_ROWS:
            series = tl.activity.get(row)
            if series is None:
                continue
            peak = float(max(series))
            lines.append(
                f"  {row.ljust(width)} |{_spark([float(v) for v in series], peak)}|"
                f" total {sum(series)}"
            )
    if tl.marks:
        lines.append("")
        lines.append("-- events --")
        for t, name, detail in tl.marks:
            suffix = f" ({detail})" if detail else ""
            lines.append(f"  t={t:.6f}s {name}{suffix}")
    if tl.layers:
        lines.append("")
        headers = list(tl.layers[0].keys())
        title = "per-layer" if "layer" in headers else "per-flow"
        lines.append(f"-- {title} trimming --")
        rows = []
        for row in tl.layers:
            rendered = []
            for key in headers:
                value = row.get(key)
                if isinstance(value, float):
                    rendered.append(f"{value:.4f}")
                else:
                    rendered.append(str(value))
            rows.append(rendered)
        lines.extend(_rows(headers, rows))
    return lines


# -- CLI ----------------------------------------------------------------------


def _cmd_render(ns: argparse.Namespace) -> int:
    try:
        events = read_jsonl(ns.trace)
    except OSError as exc:
        logger.error("cannot read trace %s: %s", ns.trace, exc)
        return 1
    except ValueError as exc:  # malformed JSON line
        logger.error("trace %s is not valid JSONL: %s", ns.trace, exc)
        return 1
    try:
        tl = build_timeline(events, bins=ns.bins)
    except ValueError as exc:
        logger.error("cannot render %s: %s", ns.trace, exc)
        return 1
    for line in render_timeline(tl):
        logger.info("%s", line)
    if ns.html is not None:
        Path(ns.html).write_text(
            timeline_html(tl, title=f"timeline of {ns.trace}"), encoding="utf-8"
        )
        logger.info("wrote %s", ns.html)
    return 0


def _cmd_record(ns: argparse.Namespace) -> int:
    # Imported here: the faults harness pulls in the whole simulator
    # stack, which `repro-timeline render` does not need.
    from ..faults.harness import run_scenario
    from ..faults.scenarios import Scenario, scenario_by_name
    from ..net.telemetry import QueueMonitor

    if ns.scenario.endswith(".json"):
        with open(ns.scenario, "r", encoding="utf-8") as fh:
            scenario = Scenario.from_dict(json.load(fh))
    else:
        try:
            scenario = scenario_by_name(ns.scenario)
        except KeyError as exc:  # an unknown preset: the message names them all
            logger.error("repro-timeline: %s", exc.args[0])
            return 2

    out = Path(ns.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # The monitor only reschedules while other simulation work is
    # pending, so a fine default period is bounded by actual traffic
    # activity, not by the scenario's (much longer) nominal duration.
    period = ns.sample_period if ns.sample_period is not None else 2e-5

    tracer = Tracer(
        enabled=True,
        jsonl_path=str(out / "trace.jsonl"),
        spans_path=str(out / "spans.jsonl"),
    )
    prev_tracer = set_tracer(tracer)
    prev_collector = set_int_collector(
        INTCollector(enabled=True, jsonl_path=str(out / "int.jsonl"))
    )
    enable_int(ns.int_capacity)
    profiler = SimProfiler() if ns.profile else None

    def instrument(net) -> None:
        QueueMonitor(net.sim, period_s=period).watch_network(net)
        if profiler is not None:
            profiler.install(net.sim)

    try:
        run = run_scenario(
            scenario,
            transport=ns.transport,
            seed=ns.seed,
            max_events=ns.max_events,
            instrument=instrument,
        )
        if profiler is not None:
            profiler.uninstall(run.network.sim)
        events = [e.to_json() for e in tracer.events]
        tl = build_timeline(events, bins=ns.bins)
        lines = render_timeline(tl)
        (out / "timeline.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        for line in lines:
            logger.info("%s", line)
        collector = get_int_collector()
        summary = collector.summary()
        (out / "int_summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        logger.info("")
        logger.info(
            "INT: %d records from %d delivered packets across %d series (hops: %s)",
            summary["records"],
            summary["packets"],
            summary["series"],
            ", ".join(summary["hops"]) or "-",
        )
        if ns.html:
            html_path = out / "timeline.html"
            html_path.write_text(
                timeline_html(
                    tl,
                    title=f"{run.scenario} / {run.transport} / seed {run.seed}",
                ),
                encoding="utf-8",
            )
            logger.info("wrote %s", html_path)
        if profiler is not None:
            report = profiler.report()
            (out / "profile.json").write_text(
                json.dumps(report, indent=2) + "\n", encoding="utf-8"
            )
            logger.info("")
            logger.info("-- event-loop profile --")
            rows = [
                [
                    row["stage"],
                    row["events"],
                    _fmt_s(row["wall_s"]),
                    f"{row['wall_share']:.1%}",
                    _fmt_s(row["modeled_s"]),
                    f"{row['modeled_share']:.1%}",
                ]
                for row in report
            ]
            for line in _rows(
                ["stage", "events", "wall", "wall%", "modeled", "modeled%"], rows
            ):
                logger.info("%s", line)
        logger.info("artifacts in %s", out)
        return 0
    finally:
        tracer.close()
        get_int_collector().close()
        set_tracer(prev_tracer)
        set_int_collector(prev_collector)
        disable_int()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-timeline",
        description="per-round congestion timeline for the trim pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser(
        "record", help="run a fault scenario with full telemetry and render it"
    )
    p_rec.add_argument(
        "scenario",
        help="a preset name (see `repro-faults list`) or a scenario .json path",
    )
    p_rec.add_argument("--seed", type=int_at_least(0), default=0, help="run seed (default 0)")
    p_rec.add_argument(
        "--transport",
        default="trimming",
        help="transport to drive the gradient traffic (default trimming)",
    )
    p_rec.add_argument(
        "--out-dir",
        default="timeline-out",
        help="artifact directory (default ./timeline-out)",
    )
    p_rec.add_argument("--bins", type=int_at_least(1), default=60, help="time bins (default 60)")
    p_rec.add_argument(
        "--int-capacity",
        type=number_in(int, 1, 255),
        default=DEFAULT_INT_CAPACITY,
        help=f"INT band record slots per packet (default {DEFAULT_INT_CAPACITY})",
    )
    p_rec.add_argument(
        "--sample-period",
        type=number_in(float, 0, above=True),
        default=None,
        help="queue sampling period in seconds (default 2e-5)",
    )
    p_rec.add_argument(
        "--max-events",
        type=int_at_least(1),
        default=2_000_000,
        help="simulator safety valve (default 2e6 events)",
    )
    p_rec.add_argument(
        "--html", action="store_true", help="also write timeline.html"
    )
    p_rec.add_argument(
        "--profile",
        action="store_true",
        help="attach the event-loop profiler and report per-stage time",
    )
    p_rec.set_defaults(func=_cmd_record)

    p_ren = sub.add_parser("render", help="render a timeline from a trace JSONL")
    p_ren.add_argument("trace", help="path to a trace.jsonl")
    p_ren.add_argument("--bins", type=int_at_least(1), default=60, help="time bins (default 60)")
    p_ren.add_argument("--html", default=None, help="write a static HTML copy here")
    p_ren.set_defaults(func=_cmd_render)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    ns = build_parser().parse_args(argv)
    return int(ns.func(ns))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
