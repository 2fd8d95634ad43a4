"""``repro-resilience``: worker-fault training runs from the shell.

Subcommands:

* ``repro-resilience run <scenario>`` — train a small DDP job under a
  worker-scoped preset (``worker-crash``, ``straggler-storm``, or any
  scenario JSON) with deadlines + membership armed, and report
  per-epoch loss/accuracy plus straggler/eviction/rejoin counts.
* ``repro-resilience resume-check <scenario>`` — the byte-identity
  gate: run the job uninterrupted, then rerun it crashing at round R
  and resuming from a checkpoint, and fail unless both histories
  serialize to identical JSON.  CI runs exactly this.

Determinism note: the trainer's modeled clock must itself be
deterministic for resume to be byte-identical, so these commands keep
the timing model's measured-codec path off (``codec_name=None`` — the
cost model then uses only its configured constants).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .. import int_at_least
from ..faults.scenarios import Scenario, scenario_by_name
from .plan import ResilienceConfig

if TYPE_CHECKING:  # heavy import deferred to runtime (see build_trainer)
    from ..train.ddp import DDPTrainer

logger = logging.getLogger("repro.resilience")

__all__ = ["main", "build_trainer"]


def _load_scenario(name: str) -> Scenario:
    if name.endswith(".json"):
        with open(name, "r", encoding="utf-8") as fh:
            return Scenario.from_dict(json.load(fh))
    return scenario_by_name(name)


def build_trainer(
    scenario: Scenario,
    seed: int = 0,
    epochs: int = 20,
    world_size: int = 4,
    trim_rate: float = 0.5,
    error_feedback: bool = False,
    deadline_factor: float = 1.5,
    evict_after: int = 3,
    label: str = "resilience",
) -> "DDPTrainer":
    """One standard small training job under ``scenario``'s fault plan.

    Deliberately tiny (MLP on the synthetic 8-class task) so the
    20-epoch acceptance run finishes in seconds; every component is the
    real one (RHT codec, trim channel, deadline, membership).
    """
    from ..collectives.hooks import AllReduceHook
    from ..core.codec import codec_by_name
    from ..nn.data import make_dataset
    from ..nn.models import MLP
    from ..train.ddp import DDPTrainer, TrainConfig
    from ..train.timing import RoundTimeModel, TimingConfig
    from ..train.trim_channel import TrimChannel

    train_set, test_set = make_dataset(
        num_classes=8,
        train_per_class=16,
        test_per_class=8,
        image_size=8,
        noise=1.0,
        seed=seed,
    )
    model = MLP(192, [16], 8, seed=seed + 3)
    hook = AllReduceHook(
        TrimChannel(
            codec_by_name("rht", root_seed=seed + 1, row_size=1024),
            trim_rate,
            seed=seed + 2,
        )
    )
    config = TrainConfig(
        epochs=epochs, batch_size=8, lr=0.1, seed=seed, augment=True
    )
    resilience = ResilienceConfig.from_scenario(
        scenario,
        deadline_factor=deadline_factor,
        evict_after=evict_after,
        error_feedback=error_feedback,
    )
    return DDPTrainer(
        model,
        train_set,
        test_set,
        world_size=world_size,
        hook=hook,
        config=config,
        time_model=RoundTimeModel(TimingConfig()),
        resilience=resilience,
        label=label,
    )


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


def _cmd_run(ns: argparse.Namespace) -> int:
    try:
        scenario = _load_scenario(ns.scenario)
    except KeyError as exc:  # an unknown preset: the message names them all
        logger.error("repro-resilience: %s", exc.args[0])
        return 2
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
    try:
        scenario = _load_scenario(ns.scenario)
    except KeyError as exc:
        logger.error("repro-resilience: %s", exc.args[0])
        return 2
    kwargs = _trainer_kwargs(ns)

    uninterrupted = build_trainer(scenario, **kwargs)
    reference = uninterrupted.train().to_json()
    rounds = uninterrupted.checkpoint().rounds_run
    if not 1 <= ns.crash_round <= rounds:  # no crash inside the run: nothing to check
        logger.error(
            "repro-resilience: --crash-round %d is outside the run's rounds 1..%d",
            ns.crash_round,
            rounds,
        )
        return 2

    crashed = build_trainer(scenario, **kwargs)
    crashed.train(max_rounds=ns.crash_round)
    blob = crashed.checkpoint().to_json()

    resumed = build_trainer(scenario, **kwargs)
    from .checkpoint import TrainingCheckpoint

    resumed.restore(TrainingCheckpoint.from_json(blob))
    replay = resumed.train().to_json()

    if replay != reference:
        logger.error(
            "resume mismatch: crash at round %d diverged from the "
            "uninterrupted run",
            ns.crash_round,
        )
        return 1
    logger.info(
        "resume-check ok: %s seed=%d crash_round=%d — %d epochs "
        "byte-identical (%d bytes)",
        scenario.name,
        ns.seed,
        ns.crash_round,
        len(resumed.history.records),
        len(reference),
    )
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "scenario",
        help="a preset name (e.g. worker-crash) or a path to a scenario .json",
    )
    parser.add_argument("--seed", type=int_at_least(0), default=0, help="run seed (default 0)")
    parser.add_argument("--epochs", type=int, default=20, help="epochs (default 20)")
    parser.add_argument("--world", type=int_at_least(1), default=4, help="workers (default 4)")
    parser.add_argument(
        "--trim-rate", type=float, default=0.5, help="channel trim rate (default 0.5)"
    )
    parser.add_argument(
        "--ef", action="store_true", help="enable error-feedback residuals"
    )
    parser.add_argument(
        "--deadline-factor",
        type=float,
        default=1.5,
        help="round budget as a multiple of the nominal round time",
    )
    parser.add_argument(
        "--evict-after",
        type=int,
        default=3,
        help="consecutive missed deadlines before eviction (default 3)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-resilience",
        description="worker-level fault tolerance for the trim-pipeline trainer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train under a worker-fault scenario")
    _add_common(p_run)
    p_run.add_argument("--out", default=None, help="write the history JSON here")
    p_run.set_defaults(func=_cmd_run)

    p_resume = sub.add_parser(
        "resume-check", help="verify crash+resume is byte-identical"
    )
    _add_common(p_resume)
    p_resume.add_argument(
        "--crash-round",
        type=int,
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
