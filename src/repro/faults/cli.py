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
* ``repro-faults train <scenario>`` — train a small DDP job under a
  worker-scoped preset (``worker-crash``, ``straggler-storm``, or any
  scenario JSON) with deadlines + membership armed, and report
  per-epoch loss/accuracy plus straggler/eviction/rejoin counts.
* ``repro-faults resume-check <scenario>`` — the byte-identity gate:
  run the job uninterrupted, then rerun it crashing at round R and
  resuming from a checkpoint, and fail unless both histories serialize
  to identical JSON and both runs end in the same checkpoint bytes
  (channel stats, deadline, membership and EF residuals included).  CI
  runs exactly this.

The JSONL stream is one fault event per line (sorted keys, simulation
time only — never wall-clock time) followed by a single ``summary``
record.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..argtypes import (
    campaign_plan,
    cluster_preset,
    fault_scenario,
    int_at_least,
    number_in,
    out_file,
)
from ..net import impairment_summary
from ..resilience.cli import build_trainer
from .campaign import (
    CAMPAIGN_KINDS,
    CampaignConfig,
    CampaignResult,
    draw_plan,
    render_campaign_jsonl,
    run_campaign,
    shrink_plan,
)
from .harness import TRANSPORTS, ScenarioRun, run_scenario
from .scenarios import PRESETS

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


def _cmd_list(_: argparse.Namespace) -> int:
    for name in sorted(PRESETS):
        scenario = PRESETS[name]
        kinds = ",".join(sorted({spec.fault for spec in scenario.faults}))
        logger.info("%-24s [%s] %s", name, kinds, scenario.description)
    return 0


def _cmd_run(ns: argparse.Namespace) -> int:
    run = run_scenario(
        ns.scenario,
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
    result = run_campaign(ns.plan)
    if ns.out is not None:
        Path(ns.out).write_text(
            "\n".join(render_campaign_jsonl(result)) + "\n", encoding="utf-8"
        )
        logger.info("wrote %s", ns.out)
    return _log_campaign_verdict(result)


def _cmd_campaign_shrink(ns: argparse.Namespace) -> int:
    plan = ns.plan
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


# -- worker-fault training ----------------------------------------------------


def _trainer_kwargs(ns: argparse.Namespace) -> Dict[str, Any]:
    return {
        "seed": ns.seed,
        "epochs": ns.epochs,
        "world_size": ns.world,
        "trim_rate": ns.trim_rate,
        "error_feedback": ns.ef,
        "deadline_factor": ns.deadline_factor,
        "evict_after": ns.evict_after,
    }


def _cmd_train(ns: argparse.Namespace) -> int:
    scenario = ns.scenario
    trainer = build_trainer(scenario, **_trainer_kwargs(ns))
    history = trainer.train()
    for record in history.records:
        logger.info(
            "epoch %2d  loss %.4f  top1 %.4f  stragglers %d  "
            "evictions %d  rejoins %d",
            record.epoch,
            record.train_loss,
            record.top1,
            record.stragglers,
            record.evictions,
            record.rejoins,
        )
    deadline = trainer.deadline
    membership = trainer.membership
    assert deadline is not None and membership is not None  # armed by build_trainer
    summary: Dict[str, Any] = {
        "scenario": scenario.name,
        "seed": ns.seed,
        "epochs": len(history.records),
        "final_top1": history.final_top1,
        "diverged": history.diverged,
        "rounds": deadline.rounds,
        "stragglers": deadline.total_stragglers,
        "evictions": membership.evictions,
        "rejoins": membership.rejoins,
        "states": {
            str(rank): state.value for rank, state in membership.states.items()
        },
        "surrendered": trainer.hook.stats.rounds_surrendered,
    }
    logger.info("%s", json.dumps(summary, sort_keys=True))
    if ns.out is not None:
        payload = {"summary": summary, "history": history.as_dicts()}
        with open(ns.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        logger.info("wrote history to %s", ns.out)
    if history.diverged:
        logger.error("training diverged under %s", scenario.name)
        return 1
    if len(history.records) < ns.epochs:
        logger.error(
            "only %d/%d epochs completed", len(history.records), ns.epochs
        )
        return 1
    return 0


def _cmd_resume_check(ns: argparse.Namespace) -> int:
    from ..resilience.checkpoint import TrainingCheckpoint

    scenario = ns.scenario
    kwargs = _trainer_kwargs(ns)

    uninterrupted = build_trainer(scenario, **kwargs)
    reference = uninterrupted.train().to_json()
    final = uninterrupted.checkpoint()
    rounds = final.rounds_run
    if ns.crash_round > rounds:  # no crash inside the run: nothing to check
        logger.error(
            "repro-faults: --crash-round %d is outside the run's rounds 1..%d",
            ns.crash_round,
            rounds,
        )
        return 2

    crashed = build_trainer(scenario, **kwargs)
    crashed.train(max_rounds=ns.crash_round)
    blob = crashed.checkpoint().to_json()

    resumed = build_trainer(scenario, **kwargs)
    resumed.restore(TrainingCheckpoint.from_json(blob))
    replay = resumed.train().to_json()

    if replay != reference:
        logger.error(
            "resume mismatch: crash at round %d diverged from the "
            "uninterrupted run",
            ns.crash_round,
        )
        return 1
    # The first top-level key of the canonical JSON whose bytes differ.
    got, want = (
        {key: json.dumps(value, sort_keys=True) for key, value in asdict(ckpt).items()}
        for ckpt in (resumed.checkpoint(), final)
    )
    key = next((key for key in sorted(want) if got[key] != want[key]), None)
    if key is not None:
        logger.error(
            "resume mismatch: crash at round %d left the final state's %r "
            "different from the uninterrupted run's",
            ns.crash_round,
            key,
        )
        return 1
    logger.info(
        "resume-check ok: %s seed=%d crash_round=%d — %d epochs and the "
        "final state byte-identical (%d bytes)",
        scenario.name,
        ns.seed,
        ns.crash_round,
        len(resumed.history.records),
        len(reference),
    )
    return 0


def _add_scenario_and_seed(parser: argparse.ArgumentParser, example: str) -> None:
    parser.add_argument(
        "scenario",
        type=fault_scenario,
        help=f"a preset name (e.g. {example}) or a path to a scenario .json",
    )
    parser.add_argument("--seed", type=int_at_least(0), default=0, help="run seed (default 0)")


def _add_training(parser: argparse.ArgumentParser) -> None:
    _add_scenario_and_seed(parser, "worker-crash")
    parser.add_argument(
        "--epochs", type=int_at_least(1), default=20, help="epochs (default 20)"
    )
    parser.add_argument("--world", type=int_at_least(1), default=4, help="workers (default 4)")
    parser.add_argument(
        "--trim-rate",
        type=number_in(float, 0, 1),
        default=0.5,
        help="channel trim rate (default 0.5)",
    )
    parser.add_argument(
        "--ef", action="store_true", help="enable error-feedback residuals"
    )
    parser.add_argument(
        "--deadline-factor",
        type=number_in(float, 1, above=True),
        default=1.5,
        help="round budget as a multiple of the nominal round time",
    )
    parser.add_argument(
        "--evict-after",
        type=int_at_least(1),
        default=3,
        help="consecutive missed deadlines before eviction (default 3)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-faults",
        description="deterministic fault injection for the trim-pipeline simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the available presets")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one scenario and emit a JSONL log")
    _add_scenario_and_seed(p_run, "flaky-link")
    p_run.add_argument(
        "--transport",
        choices=TRANSPORTS,
        default="trimming",
        help="transport to drive the gradient traffic (default trimming)",
    )
    p_run.add_argument(
        "--out", type=out_file, default=None, help="write the JSONL event log here"
    )
    p_run.add_argument(
        "--max-events",
        type=int_at_least(1),
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
        type=cluster_preset,
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
    p_creplay.add_argument(
        "--plan", type=campaign_plan, required=True, help="path to a saved plan.json"
    )
    p_creplay.add_argument(
        "--out", type=out_file, default=None, help="write the campaign JSONL log here"
    )
    p_creplay.set_defaults(func=_cmd_campaign_replay)

    p_cshrink = campaign_sub.add_parser(
        "shrink", help="reduce a failing plan to a minimal repro"
    )
    p_cshrink.add_argument(
        "--plan", type=campaign_plan, required=True, help="path to a saved plan.json"
    )
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

    p_train = sub.add_parser("train", help="train under a worker-fault scenario")
    _add_training(p_train)
    p_train.add_argument(
        "--out", type=out_file, default=None, help="write the history JSON here"
    )
    p_train.set_defaults(func=_cmd_train)

    p_resume = sub.add_parser(
        "resume-check", help="verify crash+resume is byte-identical"
    )
    _add_training(p_resume)
    p_resume.add_argument(
        "--crash-round",
        type=int_at_least(1),
        default=7,
        help="total rounds to run before the simulated crash (default 7)",
    )
    p_resume.set_defaults(func=_cmd_resume_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    ns = build_parser().parse_args(argv)
    return int(ns.func(ns))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
