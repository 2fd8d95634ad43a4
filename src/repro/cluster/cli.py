"""``repro-cluster``: multi-tenant fabric simulation CLI.

Run N concurrent training jobs plus background tenants on one shared
ECMP-routed fabric and print a deterministic JSON report::

    repro-cluster list
    repro-cluster show incast-4job
    repro-cluster run incast-4job --seed 7
    repro-cluster run my_scenario.json --seed 7 --out report.json

Reports contain no wall-clock values, so two runs of the same
``(scenario, seed)`` emit byte-identical output — the property the
acceptance check diffs.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import List, Optional

from ..argtypes import cluster_scenario, int_at_least, out_file
from .driver import ClusterDriver
from .scenario import available_cluster_scenarios, cluster_scenario_by_name

__all__ = ["main"]

logger = logging.getLogger(__name__)

_SCENARIO_HELP = "a preset name (see `repro-cluster list`) or a path to a scenario .json"


def _cmd_list(args: argparse.Namespace) -> int:
    for name in available_cluster_scenarios():
        scenario = cluster_scenario_by_name(name)
        logger.info(
            "%16s  jobs=%d tenants=%d  %s",
            name,
            len(scenario.jobs),
            len(scenario.tenants),
            scenario.description,
        )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    sys.stdout.write(json.dumps(args.scenario.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    driver = ClusterDriver(
        args.scenario, seed=args.seed, target_top1=args.target_top1
    )
    report = driver.run()
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        logger.info("wrote %s", args.out)
    else:
        sys.stdout.write(text + "\n")
    ok = all(
        not job["diverged"] and job["epochs"] > 0
        for job in report["jobs"].values()
    )
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="multi-tenant concurrent training on a shared fabric",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list built-in cluster presets").set_defaults(
        func=_cmd_list
    )

    p_show = sub.add_parser("show", help="print one cluster scenario as JSON")
    p_show.add_argument("scenario", type=cluster_scenario, help=_SCENARIO_HELP)
    p_show.set_defaults(func=_cmd_show)

    p_run = sub.add_parser("run", help="run a cluster scenario")
    p_run.add_argument("scenario", type=cluster_scenario, help=_SCENARIO_HELP)
    p_run.add_argument("--seed", type=int_at_least(0), default=0)
    p_run.add_argument(
        "--target-top1",
        type=float,
        default=0.5,
        help="accuracy threshold for time-to-accuracy (default 0.5)",
    )
    p_run.add_argument(
        "--out", type=out_file, help="write the report here instead of stdout"
    )
    p_run.set_defaults(func=_cmd_run)

    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
