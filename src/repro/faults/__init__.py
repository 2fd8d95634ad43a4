"""Deterministic fault injection for the simulated trim pipeline.

The subsystem has four layers:

* :mod:`repro.faults.scenarios` — declarative :class:`FaultSpec` /
  :class:`Scenario` schedules plus eleven named presets;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which arms a
  scenario against a built network through the ``Link.delivery_hook`` /
  ``Link.up`` / ``Switch.set_port_down`` seams, drawing every decision
  from :func:`repro.transforms.prng.shared_generator`;
* :mod:`repro.faults.harness` — :func:`run_scenario`, which runs a
  scenario on its dumbbell: the shared entry point of ``repro-faults
  run``, ``repro-timeline record`` and the transport-invariant test
  suite;
* :mod:`repro.faults.campaign` — chaos campaigns, the one path that
  puts faults on a fat-tree: a seeded fault sequence drawn over a
  cluster preset's fabric and judged by invariant monitors.

Same scenario + same seed ⇒ byte-identical fault event logs.
"""

from .harness import TRANSPORTS, ScenarioRun, run_scenario
from .injector import FaultInjector
from .scenarios import (
    FAULT_KINDS,
    PRESETS,
    FaultSpec,
    Scenario,
    available_scenarios,
    scenario_by_name,
)

__all__ = [
    "FAULT_KINDS",
    "PRESETS",
    "FaultSpec",
    "Scenario",
    "available_scenarios",
    "scenario_by_name",
    "FaultInjector",
    "TRANSPORTS",
    "ScenarioRun",
    "run_scenario",
]
