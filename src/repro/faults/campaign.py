"""Chaos campaigns: seeded fault sequences over a cluster scenario.

A campaign is the fuzzing layer on top of :mod:`repro.faults`: instead
of hand-writing one :class:`~repro.faults.scenarios.Scenario`, a
:class:`CampaignConfig` *draws* a fault sequence — which fabric devices
break, how, and when — from the seeded PRNG tree, runs it against a
multi-job :class:`~repro.cluster.ClusterScenario`, and checks a set of
declarative invariant :data:`MONITORS`:

* ``training-completes`` — every job trains every epoch and none
  diverges, no matter what the fabric did;
* ``no-livelock`` — the simulator drains within a step bound (waves
  are deadline-bounded, so a stuck flow surfaces here);
* ``ef-telescoping`` — for error-feedback jobs,
  ``sum(delivered) + residual == sum(inputs)`` to float rounding
  (gradient mass is never silently created or destroyed);
* ``int-intact`` — delivered packets still carry parseable INT bands
  with known per-hop decisions (telemetry survives the chaos);
* ``determinism`` — rerunning the same plan yields byte-identical
  reports and fault logs (optional second run).

When a campaign fails, :func:`shrink_plan` reduces it to a minimal
fault sequence that still violates the *same* monitor — the repro you
attach to the bug report instead of the 8-fault haystack.

Determinism contract: a plan is a pure function of its config
(:func:`draw_plan` draws from :func:`repro.transforms.prng.shared_generator`
with ``purpose="campaign"``), and a run is a pure function of the plan,
so campaign JSONL artifacts are byte-identical across repeats.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..transforms.prng import shared_generator
from .injector import FaultInjector
from .scenarios import FaultSpec, Scenario, checked_fields

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.topology import Network

__all__ = [
    "CAMPAIGN_KINDS",
    "CampaignConfig",
    "CampaignPlan",
    "CampaignResult",
    "FabricInventory",
    "Monitor",
    "Violation",
    "MONITORS",
    "fabric_inventory",
    "draw_plan",
    "run_campaign",
    "shrink_plan",
    "render_campaign_jsonl",
]

#: Fault kinds a campaign may draw.  All fabric-scoped: worker-scoped
#: kinds (crash/straggler) belong to :mod:`repro.resilience` harnesses.
CAMPAIGN_KINDS = (
    "blackout",
    "port-flap",
    "switch-down",
    "gray-failure",
    "flap",
    "corrupt",
)

#: EF telescoping tolerance: float64 rounding noise, nothing more.
EF_GAP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CampaignConfig:
    """What to fuzz and how hard.

    Attributes:
        cluster: a :data:`repro.cluster.CLUSTER_PRESETS` name.
        seed: campaign seed — drives the plan draw *and* the run.
        faults: how many fault specs to draw.
        kinds: the fault-kind pool (subset of :data:`CAMPAIGN_KINDS`).
        window_s: fault start times are drawn in ``[0, window_s)``.
        down_min_s / down_max_s: dark-time range for windowed kinds
            (flap/blackout/port-flap/switch-down) and the active-window
            length of per-packet kinds.
        rate_min / rate_max: per-packet probability range.
        ef: force DGC error feedback on every job so the telescoping
            monitor has something to check.
        check_determinism: run the plan twice and require byte-identical
            reports and fault logs (doubles the cost; CI turns it on).
        max_steps: simulator-step bound the no-livelock monitor enforces.
    """

    cluster: str = "idle-1job"
    seed: int = 0
    faults: int = 3
    kinds: Tuple[str, ...] = CAMPAIGN_KINDS
    window_s: float = 0.5e-3
    down_min_s: float = 0.05e-3
    down_max_s: float = 0.4e-3
    rate_min: float = 0.01
    rate_max: float = 0.2
    ef: bool = True
    check_determinism: bool = False
    max_steps: int = 50_000_000

    def __post_init__(self) -> None:
        if self.faults < 1:
            raise ValueError(f"a campaign draws at least one fault, got {self.faults}")
        unknown = set(self.kinds) - set(CAMPAIGN_KINDS)
        if not self.kinds or unknown:
            raise ValueError(
                f"kinds must be a non-empty subset of {CAMPAIGN_KINDS}, "
                f"got {self.kinds}"
            )
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive, got {self.window_s}")
        if not 0 < self.down_min_s <= self.down_max_s:
            raise ValueError(
                f"need 0 < down_min_s <= down_max_s, got "
                f"[{self.down_min_s}, {self.down_max_s}]"
            )
        if not 0 < self.rate_min <= self.rate_max <= 1:
            raise ValueError(
                f"need 0 < rate_min <= rate_max <= 1, got "
                f"[{self.rate_min}, {self.rate_max}]"
            )
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be positive, got {self.max_steps}")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-ready)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        payload = checked_fields(cls, data, "campaign config")
        if "kinds" in payload:
            payload["kinds"] = tuple(payload["kinds"])
        return cls(**payload)


@dataclass(frozen=True)
class CampaignPlan:
    """A drawn (or shrunken) fault sequence, ready to run or replay."""

    config: CampaignConfig
    faults: Tuple[FaultSpec, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "faults": [asdict(spec) for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignPlan":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        payload = checked_fields(cls, data, "campaign plan")
        return cls(
            config=CampaignConfig.from_dict(payload["config"]),
            faults=tuple(
                spec
                if isinstance(spec, FaultSpec)
                else FaultSpec(**checked_fields(FaultSpec, spec, "fault"))
                for spec in payload["faults"]
            ),
        )


@dataclass(frozen=True)
class FabricInventory:
    """The drawable fault targets of one built network.

    Attributes:
        links: switch-to-switch ``"src->dst"`` labels (per-packet and
            flap/gray targets).
        ports: switch-to-switch ``"<switch>:<neighbor>"`` egress ports
            (blackout / port-flap targets).
        switches: ``"switch:<name>"`` device targets — only switches
            whose every neighbor is another switch (aggregation/core
            tier), so killing one always leaves the edge an equal-cost
            detour and never strands a host behind a dead device.
    """

    links: Tuple[str, ...]
    ports: Tuple[str, ...]
    switches: Tuple[str, ...]


def fabric_inventory(network: "Network") -> FabricInventory:
    """Enumerate the fault targets of ``network``, deterministically."""
    links: List[str] = []
    ports: List[str] = []
    switches: List[str] = []
    for name in sorted(network.switches):
        switch = network.switches[name]
        fabric_neighbors = [n for n in sorted(switch.ports) if n in network.switches]
        for neighbor in fabric_neighbors:
            links.append(f"{name}->{neighbor}")
            ports.append(f"{name}:{neighbor}")
        if fabric_neighbors and len(fabric_neighbors) == len(switch.ports):
            switches.append(f"switch:{name}")
    return FabricInventory(
        links=tuple(links), ports=tuple(ports), switches=tuple(switches)
    )


def _build_cluster_network(config: CampaignConfig) -> "Network":
    """The fabric the campaign's cluster scenario would build."""
    from ..cluster import ClusterDriver, cluster_scenario_by_name

    scenario = cluster_scenario_by_name(config.cluster)
    return ClusterDriver.build_network(scenario, seed=config.seed)


def draw_plan(config: CampaignConfig, network: Optional["Network"] = None) -> CampaignPlan:
    """Draw the campaign's fault sequence from the seeded PRNG tree.

    One ``config`` always yields the same plan: every draw comes from
    ``shared_generator(seed, purpose="campaign")`` over the *sorted*
    target inventory, so the plan (and everything downstream of it) is
    reproducible from the config alone.
    """
    if network is None:
        network = _build_cluster_network(config)
    inventory = fabric_inventory(network)
    kinds = tuple(
        kind
        for kind in config.kinds
        if kind != "switch-down" or inventory.switches
    )
    if not kinds:
        raise ValueError("no drawable fault kinds for this topology")
    gen = shared_generator(config.seed, epoch=0, message_id=0, purpose="campaign")
    specs: List[FaultSpec] = []
    for _ in range(config.faults):
        kind = kinds[int(gen.integers(len(kinds)))]
        start_s = round(float(gen.uniform(0.0, config.window_s)), 9)
        span_s = round(
            float(gen.uniform(config.down_min_s, config.down_max_s)), 9
        )
        if kind in ("blackout", "port-flap"):
            target = inventory.ports[int(gen.integers(len(inventory.ports)))]
            specs.append(FaultSpec(kind, target, start_s=start_s, down_s=span_s))
        elif kind == "switch-down":
            target = inventory.switches[int(gen.integers(len(inventory.switches)))]
            specs.append(FaultSpec(kind, target, start_s=start_s, down_s=span_s))
        elif kind == "flap":
            target = inventory.links[int(gen.integers(len(inventory.links)))]
            specs.append(FaultSpec(kind, target, start_s=start_s, down_s=span_s))
        elif kind == "gray-failure":
            target = inventory.links[int(gen.integers(len(inventory.links)))]
            rate = round(float(gen.uniform(config.rate_min, config.rate_max)), 9)
            corrupt = round(float(gen.uniform(0.0, config.rate_max)), 9)
            specs.append(
                FaultSpec(
                    kind,
                    target,
                    rate=rate,
                    corrupt_rate=corrupt,
                    start_s=start_s,
                    stop_s=round(start_s + span_s, 9),
                )
            )
        else:  # corrupt
            target = inventory.links[int(gen.integers(len(inventory.links)))]
            rate = round(float(gen.uniform(config.rate_min, config.rate_max)), 9)
            specs.append(
                FaultSpec(
                    kind,
                    target,
                    rate=rate,
                    start_s=start_s,
                    stop_s=round(start_s + span_s, 9),
                )
            )
    return CampaignPlan(config=config, faults=tuple(specs))


# -- invariant monitors -------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One invariant breach, JSON-ready."""

    monitor: str
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {"monitor": self.monitor, "detail": self.detail}


@dataclass
class _RunArtifacts:
    """Everything a monitor may inspect after one cluster run."""

    plan: CampaignPlan
    report: Dict[str, Any]
    driver: Any
    injector: FaultInjector
    int_summary: Dict[str, Any]


@dataclass(frozen=True)
class Monitor:
    """A named invariant over a finished campaign run."""

    name: str
    description: str
    check: Callable[[_RunArtifacts], List[str]]


def _check_training_completes(run: _RunArtifacts) -> List[str]:
    problems: List[str] = []
    jobs: Dict[str, Dict[str, Any]] = run.report["jobs"]
    for spec in run.driver.scenario.jobs:
        job = jobs[spec.name]
        if job["epochs"] != spec.epochs:
            problems.append(
                f"{spec.name}: trained {job['epochs']}/{spec.epochs} epochs"
            )
        if job["diverged"]:
            problems.append(f"{spec.name}: diverged")
    return problems


def _check_no_livelock(run: _RunArtifacts) -> List[str]:
    steps = int(run.driver.net.sim.events_processed)
    bound = run.plan.config.max_steps
    if steps > bound:
        return [f"simulator ran {steps} steps (bound {bound})"]
    if run.report["waves"] < 1:
        return ["no wave ever completed"]
    return []


def _check_ef_telescoping(run: _RunArtifacts) -> List[str]:
    problems: List[str] = []
    for runtime in run.driver.runtimes:
        if not runtime.spec.ef:
            continue
        gap = float(runtime.hook.ef_telescoping_gap())
        if gap > EF_GAP_TOLERANCE:
            problems.append(
                f"{runtime.spec.name}: telescoping gap {gap:.3e} "
                f"(tolerance {EF_GAP_TOLERANCE:.0e})"
            )
    return problems


def _check_int_intact(run: _RunArtifacts) -> List[str]:
    delivered = sum(
        int(job["bytes_delivered"]) for job in run.report["jobs"].values()
    )
    if delivered == 0:
        # Nothing arrived, nothing to stamp; training-completes will
        # have fired if that is itself a problem.
        return []
    problems: List[str] = []
    if int(run.int_summary["records"]) == 0:
        problems.append("gradient bytes delivered but no INT record survived")
    unknown = [
        name
        for name in run.int_summary.get("decisions", {})
        if name.startswith("unknown")
    ]
    if unknown:
        problems.append(f"unparseable INT decisions: {sorted(unknown)}")
    return problems


#: The declarative invariant set every campaign run is judged against.
#: (``determinism`` is checked by :func:`run_campaign` itself when the
#: config asks for it — it needs a second run, not a post-hoc check.)
MONITORS: Tuple[Monitor, ...] = (
    Monitor(
        "training-completes",
        "every job trains all its epochs and none diverges",
        _check_training_completes,
    ),
    Monitor(
        "no-livelock",
        "the simulator drains within the configured step bound",
        _check_no_livelock,
    ),
    Monitor(
        "ef-telescoping",
        "sum(delivered) + residual == sum(inputs) for every EF job",
        _check_ef_telescoping,
    ),
    Monitor(
        "int-intact",
        "delivered packets carry parseable INT bands with known decisions",
        _check_int_intact,
    ),
)


# -- execution ----------------------------------------------------------------


@dataclass
class CampaignResult:
    """One finished campaign run: the report, the log, the verdict."""

    plan: CampaignPlan
    report: Dict[str, Any]
    fault_events: List[Dict[str, Any]]
    fault_counts: Dict[str, int]
    int_summary: Dict[str, Any]
    violations: Tuple[Violation, ...]
    sim_time_s: float
    steps: int

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violated_monitors(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for violation in self.violations:
            if violation.monitor not in seen:
                seen.append(violation.monitor)
        return tuple(seen)

    def summary(self) -> Dict[str, Any]:
        """Deterministic, JSON-ready digest."""
        return {
            "cluster": self.plan.config.cluster,
            "seed": self.plan.config.seed,
            "faults": len(self.plan.faults),
            "fault_counts": dict(sorted(self.fault_counts.items())),
            "fault_events": len(self.fault_events),
            "sim_time_s": self.sim_time_s,
            "steps": self.steps,
            "int": dict(sorted(self.int_summary.items())),
            "fabric": self.report.get("fabric", {}),
            "ok": self.ok,
            "violated_monitors": list(self.violated_monitors),
        }


def _execute_once(plan: CampaignPlan) -> _RunArtifacts:
    """One seeded cluster run with the plan's faults armed."""
    from ..cluster import ClusterDriver, cluster_scenario_by_name
    from ..obs.int_telemetry import (
        INTCollector,
        disable_int,
        enable_int,
        int_capacity,
        set_int_collector,
    )

    config = plan.config
    scenario = cluster_scenario_by_name(config.cluster)
    if config.ef:
        scenario = replace(
            scenario, jobs=tuple(replace(job, ef=True) for job in scenario.jobs)
        )
    driver = ClusterDriver(scenario, seed=config.seed)
    wrapper = Scenario(
        name=f"campaign-{config.cluster}-{config.seed}",
        description="drawn chaos-campaign fault sequence",
        faults=plan.faults,
        duration_s=1.0,
    )
    injector = FaultInjector(driver.net, wrapper, root_seed=config.seed)
    injector.install()
    previous_capacity = int_capacity()
    collector = INTCollector(enabled=True)
    previous_collector = set_int_collector(collector)
    enable_int()
    try:
        report = driver.run()
    finally:
        set_int_collector(previous_collector)
        if previous_capacity is None:
            disable_int()
        else:
            enable_int(previous_capacity)
    return _RunArtifacts(
        plan=plan,
        report=report,
        driver=driver,
        injector=injector,
        int_summary=collector.summary(),
    )


def run_campaign(plan: CampaignPlan) -> CampaignResult:
    """Run ``plan`` once (twice under ``check_determinism``) and judge it."""
    run = _execute_once(plan)
    violations: List[Violation] = []
    for monitor in MONITORS:
        for detail in monitor.check(run):
            violations.append(Violation(monitor=monitor.name, detail=detail))
    if plan.config.check_determinism:
        rerun = _execute_once(plan)
        first = json.dumps(run.report, sort_keys=True)
        second = json.dumps(rerun.report, sort_keys=True)
        if first != second:
            violations.append(
                Violation("determinism", "same-plan reports differ byte-for-byte")
            )
        if run.injector.events != rerun.injector.events:
            violations.append(
                Violation("determinism", "same-plan fault event logs differ")
            )
    return CampaignResult(
        plan=plan,
        report=run.report,
        fault_events=list(run.injector.events),
        fault_counts=run.injector.summary(),
        int_summary=run.int_summary,
        violations=tuple(violations),
        sim_time_s=float(run.driver.net.sim.now),
        steps=int(run.driver.net.sim.events_processed),
    )


# -- shrinking ----------------------------------------------------------------


def shrink_plan(
    plan: CampaignPlan,
    monitor: str,
    run: Callable[[CampaignPlan], CampaignResult] = run_campaign,
    trace: Optional[List[Dict[str, Any]]] = None,
) -> CampaignPlan:
    """Reduce ``plan`` to a minimal sequence still violating ``monitor``.

    Greedy delta debugging: repeatedly try dropping one fault at a time,
    keeping any drop after which the *same* monitor still fires, until no
    single fault can be removed (1-minimality).  Deterministic: candidates
    are tried in sequence order, so the same failing plan always shrinks
    to the same minimal repro.

    Args:
        plan: a plan known (or suspected) to violate ``monitor``.
        monitor: the monitor name the shrunken plan must keep violating.
        run: the campaign runner (injectable for fast/offline shrinks).
        trace: optional sink for one record per candidate tried.
    """
    current = list(plan.faults)
    if monitor not in run(replace(plan, faults=tuple(current))).violated_monitors:
        raise ValueError(f"plan does not violate monitor {monitor!r}; nothing to shrink")
    changed = True
    while changed and len(current) > 1:
        changed = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1 :]
            result = run(replace(plan, faults=tuple(candidate)))
            still_failing = monitor in result.violated_monitors
            if trace is not None:
                trace.append(
                    {
                        "kept": len(candidate),
                        "dropped": asdict(current[index]),
                        "still_failing": still_failing,
                    }
                )
            if still_failing:
                current = candidate
                changed = True
                break
    return replace(plan, faults=tuple(current))


# -- artifacts ----------------------------------------------------------------


def render_campaign_jsonl(result: CampaignResult) -> List[str]:
    """The deterministic JSONL artifact for one campaign run.

    One ``plan`` line, one ``fault`` line per injected event, one
    ``violation`` line per breach, then a single ``summary`` record —
    all with sorted keys and simulation time only, so two runs of the
    same plan produce byte-identical files.
    """
    lines = [json.dumps({"kind": "plan", **result.plan.to_dict()}, sort_keys=True)]
    lines.extend(
        json.dumps({"kind": "fault", **event}, sort_keys=True)
        for event in result.fault_events
    )
    lines.extend(
        json.dumps({"kind": "violation", **violation.to_dict()}, sort_keys=True)
        for violation in result.violations
    )
    lines.append(json.dumps({"kind": "summary", **result.summary()}, sort_keys=True))
    return lines
