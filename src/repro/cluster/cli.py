"""``repro-cluster``: multi-tenant fabric simulation CLI.

Run N concurrent training jobs plus background tenants on one shared
ECMP-routed fabric and print a deterministic JSON report::

    repro-cluster list
    repro-cluster show incast-4job
    repro-cluster run --preset incast-4job --seed 7
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

from .. import int_at_least
from .driver import ClusterDriver
from .scenario import (
    ClusterScenario,
    available_cluster_scenarios,
    cluster_scenario_by_name,
)

__all__ = ["main"]

logger = logging.getLogger(__name__)


def _load_scenario(args: argparse.Namespace) -> ClusterScenario:
    if args.preset:
        return cluster_scenario_by_name(args.preset)
    data = json.loads(Path(args.scenario).read_text())
    return ClusterScenario.from_dict(data)


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
    try:
        scenario = cluster_scenario_by_name(args.name)
    except KeyError as exc:  # an unknown preset: the message names them all
        logger.error("repro-cluster: %s", exc.args[0])
        return 2
    sys.stdout.write(json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if not (args.preset or args.scenario):
        logger.error(
            "repro-cluster: run needs --preset NAME or a scenario JSON path; presets: %s",
            available_cluster_scenarios(),
        )
        return 2
    try:
        scenario = _load_scenario(args)
    except KeyError as exc:  # an unknown preset: the message names them all
        logger.error("repro-cluster: %s", exc.args[0])
        return 2
    except (OSError, TypeError, ValueError) as exc:
        # A missing file, bad JSON or a wrong key: one line, no traceback.
        logger.error("repro-cluster: %s: %s", args.scenario or args.preset, exc)
        return 2
    driver = ClusterDriver(
        scenario, seed=args.seed, target_top1=args.target_top1
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

    p_show = sub.add_parser("show", help="print one preset as JSON")
    p_show.add_argument("name")
    p_show.set_defaults(func=_cmd_show)

    p_run = sub.add_parser("run", help="run a cluster scenario")
    p_run.add_argument(
        "scenario", nargs="?", help="path to a scenario JSON file"
    )
    p_run.add_argument("--preset", help="built-in scenario name")
    p_run.add_argument("--seed", type=int_at_least(0), default=0)
    p_run.add_argument(
        "--target-top1",
        type=float,
        default=0.5,
        help="accuracy threshold for time-to-accuracy (default 0.5)",
    )
    p_run.add_argument("--out", help="write the report here instead of stdout")
    p_run.set_defaults(func=_cmd_run)

    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
