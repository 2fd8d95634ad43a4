"""Bridge from declarative fault scenarios to the trainer's clock.

The network harness interprets a ``worker-crash`` spec by taking host
``tx<rank>``'s uplink down; the DDP trainer has no packets, only a
modeled wall clock.  :class:`WorkerFaultPlan` evaluates the same
worker-scoped :class:`~repro.faults.scenarios.FaultSpec` windows
against that modeled clock:

* ``crash``: the worker is unreachable while the spec window is open —
  its round time is infinite and it misses every deadline.
* ``straggler``: the worker's round time is multiplied by the expected
  slowdown ``1 + rate * (slow_factor - 1)`` (``rate`` is the fraction
  of packets delayed on the wire; on the modeled clock it becomes the
  deterministic expected stretch).

:class:`ResilienceConfig` carries the plan plus the deadline/membership
knobs into :class:`~repro.train.ddp.DDPTrainer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from ..faults.scenarios import FaultSpec, Scenario

__all__ = ["ResilienceConfig", "WorkerFaultPlan"]


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Worker-scoped fault windows evaluated on the modeled clock."""

    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        for spec in self.specs:
            if spec.fault not in ("crash", "straggler"):
                raise ValueError(
                    f"plan only takes worker-scoped specs, got {spec.fault!r}"
                )

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "WorkerFaultPlan":
        """Extract the crash/straggler specs from a scenario."""
        return cls(specs=scenario.worker_faults())

    def crashed(self, worker: int, now_s: float) -> bool:
        """Is ``worker`` inside an open crash window at ``now_s``?"""
        return any(
            spec.fault == "crash"
            and spec.worker_rank == worker
            and spec.active_at(now_s)
            for spec in self.specs
        )

    def slow_factor(self, worker: int, now_s: float) -> float:
        """Multiplicative round-time stretch for ``worker`` at ``now_s``."""
        factor = 1.0
        for spec in self.specs:
            if (
                spec.fault == "straggler"
                and spec.worker_rank == worker
                and spec.active_at(now_s)
            ):
                factor *= 1.0 + spec.rate * (spec.slow_factor - 1.0)
        return factor

    def round_time(self, worker: int, base_s: float, now_s: float) -> float:
        """One worker's modeled round time under the plan (inf = crashed)."""
        if self.crashed(worker, now_s):
            return math.inf
        return base_s * self.slow_factor(worker, now_s)


@dataclass
class ResilienceConfig:
    """Everything the trainer needs to survive worker-level faults.

    Attributes:
        plan: the fault schedule (empty plan = no injected faults, but
            deadlines/membership still armed).
        deadline_factor: round budget as a multiple of the nominal
            round time from the cost model.
        evict_after: consecutive missed deadlines before eviction.
        suspect_phi: phi-accrual threshold for the suspect state.
        rejoin: re-admit an evicted worker (with a model broadcast)
            once its crash window closes.
        error_feedback: wrap the hook's channel in
            :class:`~repro.resilience.ef.EFChannel`.
    """

    plan: WorkerFaultPlan = field(default_factory=WorkerFaultPlan)
    deadline_factor: float = 1.5
    evict_after: int = 3
    suspect_phi: float = 3.0
    rejoin: bool = True
    error_feedback: bool = False

    @classmethod
    def from_scenario(cls, scenario: Scenario, **kwargs: object) -> "ResilienceConfig":
        """Config whose plan is the scenario's worker-scoped faults."""
        plan = WorkerFaultPlan.from_scenario(scenario)
        return cls(plan=plan, **kwargs)  # type: ignore[arg-type]

    def __post_init__(self) -> None:
        if self.deadline_factor <= 1.0:
            raise ValueError(
                f"deadline_factor must exceed 1, got {self.deadline_factor}"
            )
        if self.evict_after < 1:
            raise ValueError(f"evict_after must be >= 1, got {self.evict_after}")
