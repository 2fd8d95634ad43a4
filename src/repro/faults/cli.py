"""``repro-faults``: run deterministic fault scenarios from the shell.

Subcommands:

* ``repro-faults list`` — the preset table with descriptions.
* ``repro-faults run <scenario> --seed N [--transport T] [--out F]`` —
  execute one preset (or a JSON scenario file) and write the fault/event
  log as JSONL.  Two runs with the same arguments produce byte-identical
  output files; the chaos CI job diffs exactly that.
* ``repro-faults campaign run|replay|shrink`` — seeded chaos campaigns
  over a cluster preset: draw a fault sequence, run it under the
  invariant monitors (see :mod:`repro.faults.campaign`), replay a saved
  plan byte-for-byte, or shrink a failing plan to a minimal repro.

The JSONL stream is one fault event per line (sorted keys, simulation
time only — never wall-clock time) followed by a single ``summary``
record.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import List, Optional

from .. import int_at_least
from ..net import impairment_summary
from .campaign import (
    CAMPAIGN_KINDS,
    CampaignConfig,
    CampaignPlan,
    CampaignResult,
    draw_plan,
    render_campaign_jsonl,
    run_campaign,
    shrink_plan,
)
from .harness import TRANSPORTS, ScenarioRun, run_scenario
from .scenarios import PRESETS, Scenario, scenario_by_name

logger = logging.getLogger("repro.faults")

__all__ = ["main", "render_jsonl"]


def render_jsonl(run: ScenarioRun) -> List[str]:
    """The deterministic JSONL lines for one run (no trailing newline)."""
    lines = [
        json.dumps({"kind": "fault", **event}, sort_keys=True)
        for event in run.events
    ]
    summary = {
        "kind": "summary",
        **run.summary(),
        "impairments": impairment_summary(run.network),
    }
    lines.append(json.dumps(summary, sort_keys=True))
    return lines


def _load_scenario(name: str) -> Scenario:
    if name.endswith(".json"):
        with open(name, "r", encoding="utf-8") as fh:
            return Scenario.from_dict(json.load(fh))
    return scenario_by_name(name)


#: What reading a scenario or plan file can raise: a missing file, bad
#: JSON or a wrong key — reported in one line, exit status 2.
_BAD_FILE = (OSError, TypeError, ValueError)


def _cmd_list(_: argparse.Namespace) -> int:
    for name in sorted(PRESETS):
        scenario = PRESETS[name]
        kinds = ",".join(sorted({spec.fault for spec in scenario.faults}))
        logger.info("%-24s [%s] %s", name, kinds, scenario.description)
    return 0


def _cmd_run(ns: argparse.Namespace) -> int:
    try:
        scenario = _load_scenario(ns.scenario)
    except KeyError as exc:  # an unknown preset: the message names them all
        logger.error("repro-faults: %s", exc.args[0])
        return 2
    except _BAD_FILE as exc:
        logger.error("repro-faults: %s: %s", ns.scenario, exc)
        return 2
    run = run_scenario(
        scenario,
        transport=ns.transport,
        seed=ns.seed,
        max_events=ns.max_events,
    )
    lines = render_jsonl(run)
    if ns.out is not None:
        Path(ns.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        logger.info("wrote %d events to %s", len(lines) - 1, ns.out)
    completed, total = len(run.completed_flows), len(run.flows)
    logger.info(
        "%s/%s seed=%d: %d/%d flows complete, %d surrendered, "
        "%d faults injected, %d sim steps, t=%.6fs",
        run.scenario,
        run.transport,
        run.seed,
        completed,
        total,
        len(run.surrenders),
        sum(run.fault_counts.values()),
        run.steps,
        run.sim_time,
    )
    # Success = every flow reached a terminal state (delivered or clean
    # surrender); a flow stuck in limbo is exactly the livelock this
    # subsystem exists to rule out.
    stuck = total - completed - len(run.surrenders)
    if stuck:
        logger.error("%d flow(s) neither completed nor surrendered", stuck)
        return 1
    return 0


# -- chaos campaigns ----------------------------------------------------------


def _load_plan(path: str) -> CampaignPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return CampaignPlan.from_dict(json.load(fh))


def _write_campaign_artifacts(
    result: CampaignResult, out_dir: Optional[str]
) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    plan_path = out / "plan.json"
    plan_path.write_text(
        json.dumps(result.plan.to_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    log_path = out / "campaign.jsonl"
    log_path.write_text(
        "\n".join(render_campaign_jsonl(result)) + "\n", encoding="utf-8"
    )
    logger.info("wrote %s and %s", plan_path, log_path)


def _log_campaign_verdict(result: CampaignResult) -> int:
    for violation in result.violations:
        logger.error("VIOLATION %s: %s", violation.monitor, violation.detail)
    summary = result.summary()
    logger.info(
        "campaign %s seed=%d: %d faults drawn, %d fault events, "
        "%d reroutes, %d sim steps, %s",
        summary["cluster"],
        summary["seed"],
        summary["faults"],
        summary["fault_events"],
        summary["fabric"].get("reroutes", 0),
        summary["steps"],
        "OK" if result.ok else f"{len(result.violations)} violation(s)",
    )
    return 0 if result.ok else 1


def _cmd_campaign_run(ns: argparse.Namespace) -> int:
    from ..cluster import cluster_scenario_by_name

    try:
        cluster_scenario_by_name(ns.cluster)
    except KeyError as exc:
        logger.error("repro-faults: %s", exc.args[0])
        return 2
    kinds = (
        tuple(k for k in ns.kinds.split(",") if k) if ns.kinds else CAMPAIGN_KINDS
    )
    config = CampaignConfig(
        cluster=ns.cluster,
        seed=ns.seed,
        faults=ns.faults,
        kinds=kinds,
        ef=not ns.no_ef,
        check_determinism=ns.determinism,
    )
    result = run_campaign(draw_plan(config))
    _write_campaign_artifacts(result, ns.out_dir)
    return _log_campaign_verdict(result)


def _cmd_campaign_replay(ns: argparse.Namespace) -> int:
    try:
        plan = _load_plan(ns.plan)
    except _BAD_FILE as exc:
        logger.error("repro-faults: %s: %s", ns.plan, exc)
        return 2
    result = run_campaign(plan)
    if ns.out is not None:
        Path(ns.out).write_text(
            "\n".join(render_campaign_jsonl(result)) + "\n", encoding="utf-8"
        )
        logger.info("wrote %s", ns.out)
    return _log_campaign_verdict(result)


def _cmd_campaign_shrink(ns: argparse.Namespace) -> int:
    try:
        plan = _load_plan(ns.plan)
    except _BAD_FILE as exc:
        logger.error("repro-faults: %s: %s", ns.plan, exc)
        return 2
    monitor = ns.monitor
    if monitor is None:
        first = run_campaign(plan)
        if first.ok:
            logger.info("plan violates no monitor; nothing to shrink")
            return 0
        monitor = first.violated_monitors[0]
        logger.info("shrinking against monitor %r", monitor)
    trace: List[dict] = []
    shrunk = shrink_plan(plan, monitor, trace=trace)
    out = Path(ns.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shrunk_path = out / "shrunk.json"
    shrunk_path.write_text(
        json.dumps(shrunk.to_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    trace_path = out / "shrink.jsonl"
    trace_path.write_text(
        "\n".join(
            json.dumps({"kind": "shrink", "monitor": monitor, **step}, sort_keys=True)
            for step in trace
        )
        + "\n",
        encoding="utf-8",
    )
    logger.info(
        "shrunk %d -> %d fault(s); wrote %s and %s",
        len(plan.faults),
        len(shrunk.faults),
        shrunk_path,
        trace_path,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-faults",
        description="deterministic fault injection for the trim-pipeline simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the available presets")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one scenario and emit a JSONL log")
    p_run.add_argument(
        "scenario",
        help="a preset name (see `repro-faults list`) or a path to a scenario .json",
    )
    p_run.add_argument("--seed", type=int_at_least(0), default=0, help="run seed (default 0)")
    p_run.add_argument(
        "--transport",
        choices=TRANSPORTS,
        default="trimming",
        help="transport to drive the gradient traffic (default trimming)",
    )
    p_run.add_argument("--out", default=None, help="write the JSONL event log here")
    p_run.add_argument(
        "--max-events",
        type=int,
        default=2_000_000,
        help="simulator safety valve (default 2e6 events)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_campaign = sub.add_parser(
        "campaign", help="seeded chaos campaigns over a cluster preset"
    )
    campaign_sub = p_campaign.add_subparsers(dest="campaign_command", required=True)

    p_crun = campaign_sub.add_parser(
        "run", help="draw a fault sequence, run it, judge the invariants"
    )
    p_crun.add_argument(
        "--cluster",
        default="idle-1job",
        help="cluster preset to fuzz (default idle-1job)",
    )
    p_crun.add_argument("--seed", type=int_at_least(0), default=0, help="campaign seed (default 0)")
    p_crun.add_argument(
        "--faults", type=int_at_least(1), default=3, help="fault specs to draw (default 3)"
    )
    p_crun.add_argument(
        "--kinds",
        default=None,
        help=f"comma-separated fault-kind pool (default all of {CAMPAIGN_KINDS})",
    )
    p_crun.add_argument(
        "--no-ef",
        action="store_true",
        help="leave error feedback off (disables the ef-telescoping monitor)",
    )
    p_crun.add_argument(
        "--determinism",
        action="store_true",
        help="run the plan twice and require byte-identical reports",
    )
    p_crun.add_argument(
        "--out-dir",
        default=None,
        help="write plan.json and campaign.jsonl artifacts here",
    )
    p_crun.set_defaults(func=_cmd_campaign_run)

    p_creplay = campaign_sub.add_parser(
        "replay", help="re-run a saved plan.json byte-for-byte"
    )
    p_creplay.add_argument("--plan", required=True, help="path to a saved plan.json")
    p_creplay.add_argument(
        "--out", default=None, help="write the campaign JSONL log here"
    )
    p_creplay.set_defaults(func=_cmd_campaign_replay)

    p_cshrink = campaign_sub.add_parser(
        "shrink", help="reduce a failing plan to a minimal repro"
    )
    p_cshrink.add_argument("--plan", required=True, help="path to a saved plan.json")
    p_cshrink.add_argument(
        "--monitor",
        default=None,
        help="monitor name to shrink against (default: first violated)",
    )
    p_cshrink.add_argument(
        "--out-dir",
        required=True,
        help="write shrunk.json and shrink.jsonl here",
    )
    p_cshrink.set_defaults(func=_cmd_campaign_shrink)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    ns = build_parser().parse_args(argv)
    return int(ns.func(ns))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
