"""The argparse ``type=`` callables the command lines share.

Every scenario, campaign plan, named choice (transport, campaign fault
kind, monitor), bounded number and output file a command names is
resolved here, while its arguments are parsed: an unknown preset or
name, a missing file, bad JSON, a wrong key, a number out of range or
an output file in a missing directory is argparse's usage and one
``error:`` line, exit status 2, before anything runs.  Each scenario,
plan or name type imports its package only when called, so a
command that names none (``repro-timeline render``) does not load the
simulator.
"""

from __future__ import annotations

import json
from argparse import ArgumentTypeError
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

if TYPE_CHECKING:
    from .cluster.scenario import ClusterScenario
    from .faults.campaign import CampaignPlan
    from .faults.scenarios import Scenario

__all__ = [
    "campaign_kinds",
    "campaign_monitor",
    "campaign_plan",
    "cluster_preset",
    "cluster_scenario",
    "fault_scenario",
    "fault_transport",
    "int_at_least",
    "number_in",
    "out_file",
]


def number_in(kind, low, high=None, *, above=False):
    """A ``kind`` number of at least ``low`` (above it when ``above``) and
    at most ``high``."""
    if above:
        rule = f"above {low}"
    else:
        rule = f"at least {low}" if high is None else f"in [{low}, {high}]"

    def number(text: str):
        value = kind(text)
        fits = low < value if above else low <= value  # NaN fits nothing
        if not fits or (high is not None and not value <= high):
            raise ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return number


def int_at_least(minimum: int):
    """An integer of at least ``minimum``."""
    return number_in(int, minimum)


def out_file(text: str) -> str:
    """A file to write, in a directory that exists."""
    folder = Path(text).parent
    if not folder.is_dir():
        raise ArgumentTypeError(f"no directory {str(folder)!r} to write {text!r} in")
    return text


def _from_file(path: str, from_dict: Callable[[Any], Any]) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return from_dict(json.load(fh))
    except (OSError, TypeError, ValueError) as exc:  # missing file, bad JSON, wrong key
        raise ArgumentTypeError(f"{path}: {exc}") from None


def _preset_or_file(
    text: str,
    by_name: Callable[[str], Any],
    from_dict: Optional[Callable[[Any], Any]] = None,
) -> Any:
    if from_dict is not None and text.endswith(".json"):
        return _from_file(text, from_dict)
    try:
        return by_name(text)
    except KeyError as exc:  # the message names every preset
        raise ArgumentTypeError(exc.args[0]) from None


def fault_scenario(text: str) -> "Scenario":
    """A fault scenario: a preset name (``repro-faults list``) or a ``.json`` path."""
    from .faults.scenarios import Scenario, scenario_by_name

    return _preset_or_file(text, scenario_by_name, Scenario.from_dict)


def _one_of(name: str, known: Tuple[str, ...], what: str) -> str:
    if name not in known:
        raise ArgumentTypeError(f"unknown {what} {name!r}; expected one of {known}")
    return name


def fault_transport(text: str) -> str:
    """A transport the fault harness can drive (``repro-faults run --transport``)."""
    from .faults.harness import TRANSPORTS

    return _one_of(text, TRANSPORTS, "transport")


def campaign_kinds(text: str) -> Tuple[str, ...]:
    """A comma-separated, non-empty pool of fault kinds a campaign may draw."""
    from .faults.campaign import CAMPAIGN_KINDS

    kinds = tuple(kind for kind in text.split(",") if kind)
    if not kinds:
        raise ArgumentTypeError(f"name at least one of {CAMPAIGN_KINDS}")
    return tuple(_one_of(kind, CAMPAIGN_KINDS, "campaign fault kind") for kind in kinds)


def campaign_monitor(text: str) -> str:
    """A monitor a campaign run can violate (``campaign shrink --monitor``)."""
    from .faults.campaign import MONITORS

    return _one_of(text, tuple(m.name for m in MONITORS) + ("determinism",), "monitor")


def cluster_scenario(text: str) -> "ClusterScenario":
    """A cluster scenario: a preset name (``repro-cluster list``) or a ``.json`` path."""
    from .cluster.scenario import ClusterScenario, cluster_scenario_by_name

    return _preset_or_file(text, cluster_scenario_by_name, ClusterScenario.from_dict)


def cluster_preset(text: str) -> str:
    """A cluster preset's name: a campaign plan records its cluster by name."""
    from .cluster.scenario import cluster_scenario_by_name

    return _preset_or_file(text, cluster_scenario_by_name).name


def campaign_plan(path: str) -> "CampaignPlan":
    """A saved campaign ``plan.json``."""
    from .faults.campaign import CampaignPlan

    return _from_file(path, CampaignPlan.from_dict)
