"""Declarative fault scenarios: what breaks, where, when, how hard.

A :class:`FaultSpec` is one scheduled fault stream — corruption on a
link, ACK loss, duplication, reordering jitter, a link flap, a switch
port blackout, a worker crash, a persistent straggler, a whole-device
switch death, a layer-1 port flap the control plane never sees, or a
gray failure that silently eats packets while the port stays "up" —
and a :class:`Scenario` is a named bundle of specs plus the
topology/workload shape to run them against.  Everything is plain
data: scenarios serialize to/from dicts, so a JSON file is a valid
scenario definition and the preset table below is just eleven of them.

Determinism contract: a scenario carries **no randomness of its own**.
All random draws happen inside :class:`repro.faults.FaultInjector`
through :func:`repro.transforms.prng.shared_generator` keyed by the run
seed and the spec's index, so one ``(scenario, seed)`` pair always
produces the same fault stream — byte-identical event logs.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "Scenario",
    "PRESETS",
    "available_scenarios",
    "scenario_by_name",
    "checked_fields",
]


def checked_fields(cls: type, data: Any, what: str) -> Dict[str, Any]:
    """``data`` as keyword arguments for the dataclass ``cls``, or ``ValueError``.

    The error says what to fix in a JSON file: ``data`` is not an object,
    or names a key ``cls`` does not have, or lacks one it needs (``what``
    names the object, e.g. ``"job"``).
    """
    if not isinstance(data, dict):
        raise ValueError(f"a {what} must be a JSON object, got {type(data).__name__}")
    specs = fields(cls)
    extra = set(data) - {spec.name for spec in specs}
    if extra:
        raise ValueError(
            f"unknown {what} keys: {sorted(extra)}; a {what} takes "
            f"{[spec.name for spec in specs]}"
        )
    missing = [
        spec.name
        for spec in specs
        if spec.name not in data and spec.default is MISSING and spec.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"{what} lacks required keys: {missing}")
    return dict(data)


#: Fault kinds the injector knows how to apply.
FAULT_KINDS = (
    "corrupt",
    "ack-loss",
    "duplicate",
    "reorder",
    "flap",
    "blackout",
    "crash",
    "straggler",
    "switch-down",
    "port-flap",
    "gray-failure",
)

#: Kinds that draw a Bernoulli decision per packet (need ``rate``).
_PER_PACKET = ("corrupt", "ack-loss", "duplicate", "reorder", "straggler")

#: Kinds scoped to a whole worker (``target="worker:<rank>"``) rather
#: than a single link.  In the network harness rank ``r`` maps to host
#: ``tx<r>``; in the DDP trainer the same spec drives
#: :class:`repro.resilience.WorkerFaultPlan`.
_WORKER_SCOPED = ("crash", "straggler")

#: Kinds scoped to one egress port (``target="<switch>:<neighbor>"``).
#: ``blackout`` is FIB-visible (the switch reroutes after convergence);
#: ``port-flap`` is a layer-1 flap the control plane never hears about.
_PORT_SCOPED = ("blackout", "port-flap")


@dataclass(frozen=True)
class FaultSpec:
    """One fault stream against one target.

    Attributes:
        fault: one of :data:`FAULT_KINDS`.
        target: a link label ``"src->dst"`` (per-packet kinds, ``flap``
            and ``gray-failure``), ``"<switch>:<neighbor>"``
            (``blackout``/``port-flap``) or ``"switch:<name>"``
            (``switch-down``).
        rate: per-packet probability for the per-packet kinds; the
            silent-drop probability of a ``gray-failure``.
        start_s: simulation time the fault becomes active.
        stop_s: simulation time it stops (None = whole run).
        period_s: flap cycle length (down + up); 0 = a single flap.
        down_s: how long each flap/blackout/switch-down keeps the
            target dark.
        jitter_s: max extra delay for ``reorder``; the fixed extra delay
            of a ``duplicate`` copy or of a ``straggler``'s slow packets.
        bit_flips: payload bits flipped per corrupted packet.
        slow_factor: multiplicative round-time slowdown a ``straggler``
            imposes in the DDP cost-model path (the network path uses
            ``jitter_s`` per packet instead).
        corrupt_rate: ``gray-failure`` only — probability that a packet
            the leg does *not* silently drop gets its payload corrupted
            instead (the flaky-SerDes half of a gray failure).
    """

    fault: str
    target: str
    rate: float = 0.0
    start_s: float = 0.0
    stop_s: Optional[float] = None
    period_s: float = 0.0
    down_s: float = 0.0
    jitter_s: float = 0.0
    bit_flips: int = 8
    slow_factor: float = 1.0
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.fault not in FAULT_KINDS:
            raise ValueError(f"unknown fault {self.fault!r}; expected one of {FAULT_KINDS}")
        if self.fault in _PER_PACKET and not 0.0 < self.rate <= 1.0:
            raise ValueError(f"{self.fault} needs rate in (0, 1], got {self.rate}")
        if self.fault in ("flap", "switch-down", *_PORT_SCOPED) and self.down_s <= 0.0:
            raise ValueError(f"{self.fault} needs down_s > 0, got {self.down_s}")
        if 0.0 < self.period_s <= self.down_s:
            raise ValueError(
                f"period_s={self.period_s} must exceed down_s={self.down_s}"
            )
        if self.fault in _PORT_SCOPED and ":" not in self.target:
            raise ValueError(
                f"{self.fault} target must be '<switch>:<neighbor>', got {self.target!r}"
            )
        if self.fault == "switch-down":
            if not self.target.startswith("switch:") or not self.target[7:]:
                raise ValueError(
                    f"switch-down target must be 'switch:<name>', got {self.target!r}"
                )
        elif self.fault == "gray-failure":
            if not 0.0 <= self.rate <= 1.0 or not 0.0 <= self.corrupt_rate <= 1.0:
                raise ValueError(
                    "gray-failure rate and corrupt_rate must be in [0, 1], got "
                    f"rate={self.rate}, corrupt_rate={self.corrupt_rate}"
                )
            if self.rate == 0.0 and self.corrupt_rate == 0.0:
                raise ValueError(
                    "gray-failure needs rate > 0 or corrupt_rate > 0 (else it is a no-op)"
                )
            if "->" not in self.target:
                raise ValueError(
                    f"gray-failure target must be 'src->dst', got {self.target!r}"
                )
        elif self.fault in _WORKER_SCOPED:
            if not self.target.startswith("worker:"):
                raise ValueError(
                    f"{self.fault} target must be 'worker:<rank>', got {self.target!r}"
                )
            rank = self.target.split(":", 1)[1]
            if not rank.isdigit():
                raise ValueError(f"{self.fault} worker rank must be an integer, got {rank!r}")
        elif self.fault not in _PORT_SCOPED and "->" not in self.target:
            raise ValueError(f"{self.fault} target must be 'src->dst', got {self.target!r}")
        if self.fault == "straggler" and self.jitter_s <= 0.0:
            raise ValueError(f"straggler needs jitter_s > 0, got {self.jitter_s}")
        if self.fault != "gray-failure" and self.corrupt_rate != 0.0:
            raise ValueError(f"corrupt_rate only applies to gray-failure, got {self.fault}")
        if self.slow_factor < 1.0:
            raise ValueError(f"slow_factor must be >= 1, got {self.slow_factor}")
        if self.start_s < 0 or (self.stop_s is not None and self.stop_s <= self.start_s):
            raise ValueError(f"bad fault window [{self.start_s}, {self.stop_s})")
        if self.bit_flips < 1:
            raise ValueError(f"bit_flips must be >= 1, got {self.bit_flips}")

    @property
    def worker_rank(self) -> int:
        """Rank of a worker-scoped fault's target (crash/straggler only)."""
        if self.fault not in _WORKER_SCOPED:
            raise ValueError(f"{self.fault} is not worker-scoped")
        return int(self.target.split(":", 1)[1])

    def active_at(self, now: float) -> bool:
        """Is this fault's window open at simulation time ``now``?"""
        return now >= self.start_s and (self.stop_s is None or now < self.stop_s)


@dataclass(frozen=True)
class Scenario:
    """A named, fully declarative adversity schedule.

    The topology is always a dumbbell (``tx*``/``rx*`` hosts around the
    ``s0 -> s1`` bottleneck) — the canonical shared-queue shape every
    preset stresses; ``pairs``/rates control congestion pressure and
    ``coords`` sizes the gradient workload each pair transfers.
    """

    name: str
    description: str
    faults: Tuple[FaultSpec, ...]
    duration_s: float = 0.2
    pairs: int = 1
    edge_rate_bps: float = 10e9
    bottleneck_rate_bps: float = 10e9
    coords: int = 20_000
    max_retries: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.faults:
            raise ValueError("a scenario needs at least one fault")
        if self.duration_s <= 0 or self.pairs < 1 or self.coords < 1:
            raise ValueError("duration_s, pairs and coords must be positive")
        if self.max_retries is not None and self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")

    def worker_faults(self) -> Tuple[FaultSpec, ...]:
        """The worker-scoped specs (crash/straggler) in this scenario."""
        return tuple(spec for spec in self.faults if spec.fault in _WORKER_SCOPED)

    def to_dict(self) -> Dict:
        """Plain-data form (JSON-ready)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "Scenario":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        payload = checked_fields(cls, data, "scenario")
        payload["faults"] = tuple(
            spec
            if isinstance(spec, FaultSpec)
            else FaultSpec(**checked_fields(FaultSpec, spec, "fault"))
            for spec in payload["faults"]
        )
        return cls(**payload)


def _presets() -> Dict[str, Scenario]:
    bottleneck = "s0->s1"
    ack_path = "s1->s0"
    return {
        scenario.name: scenario
        for scenario in (
            Scenario(
                name="flaky-link",
                description=(
                    "a marginal bottleneck cable: light payload corruption "
                    "plus occasional duplication on s0->s1"
                ),
                faults=(
                    FaultSpec("corrupt", bottleneck, rate=0.03),
                    FaultSpec("duplicate", bottleneck, rate=0.02, jitter_s=2e-6),
                ),
            ),
            Scenario(
                name="incast-plus-corruption",
                description=(
                    "four senders share a half-rate bottleneck while the "
                    "congested link also corrupts payloads"
                ),
                faults=(FaultSpec("corrupt", bottleneck, rate=0.02),),
                pairs=4,
                bottleneck_rate_bps=5e9,
                coords=10_000,
            ),
            Scenario(
                name="ack-storm-loss",
                description=(
                    "the reverse path misbehaves: heavy ACK loss plus "
                    "duplicated control packets on s1->s0"
                ),
                faults=(
                    FaultSpec("ack-loss", ack_path, rate=0.3),
                    FaultSpec("duplicate", ack_path, rate=0.2, jitter_s=1e-6),
                ),
            ),
            Scenario(
                name="reorder-heavy",
                description=(
                    "a third of the data packets take a detour: bounded "
                    "delay jitter reorders the bottleneck stream"
                ),
                faults=(FaultSpec("reorder", bottleneck, rate=0.3, jitter_s=30e-6),),
            ),
            Scenario(
                name="flap-during-allreduce",
                description=(
                    "the bottleneck link flaps down 0.5 ms out of every "
                    "2 ms while gradient messages are in flight"
                ),
                faults=(
                    FaultSpec(
                        "flap",
                        bottleneck,
                        start_s=0.2e-3,
                        period_s=2e-3,
                        down_s=0.5e-3,
                        stop_s=20e-3,
                    ),
                ),
            ),
            Scenario(
                name="blackout-recovery",
                description=(
                    "the egress port toward rx0 goes dark for 2 ms "
                    "mid-transfer, then recovery must finish the message"
                ),
                faults=(FaultSpec("blackout", "s1:rx0", start_s=0.3e-3, down_s=2e-3),),
            ),
            Scenario(
                name="worker-crash",
                description=(
                    "worker 1 dies mid-transfer and never comes back; the "
                    "survivors must surrender its flow and keep training"
                ),
                faults=(FaultSpec("crash", "worker:1", start_s=30e-6),),
                pairs=2,
                duration_s=2.0,
                coords=10_000,
                max_retries=40,
            ),
            Scenario(
                name="core-switch-down",
                description=(
                    "the ingress-side switch dies whole mid-transfer for "
                    "1.5 ms — every flow through it blackholes until the "
                    "fabric heals and retransmits finish the message"
                ),
                faults=(
                    FaultSpec(
                        "switch-down", "switch:s0", start_s=0.3e-3, down_s=1.5e-3
                    ),
                ),
                max_retries=40,
            ),
            Scenario(
                name="gray-core-leak",
                description=(
                    "a gray failure on the bottleneck: the port stays up "
                    "while the leg silently eats 4% of packets and "
                    "corrupts another 4%"
                ),
                faults=(
                    FaultSpec(
                        "gray-failure", bottleneck, rate=0.04, corrupt_rate=0.04
                    ),
                ),
            ),
            Scenario(
                name="port-flap-storm",
                description=(
                    "the bottleneck egress port flaps at layer 1 — 0.4 ms "
                    "dark out of every 2 ms — without the control plane "
                    "ever noticing, so nothing reroutes"
                ),
                faults=(
                    FaultSpec(
                        "port-flap",
                        "s0:s1",
                        start_s=0.2e-3,
                        period_s=2e-3,
                        down_s=0.4e-3,
                        stop_s=20e-3,
                    ),
                ),
            ),
            Scenario(
                name="straggler-storm",
                description=(
                    "two workers turn persistently slow: every packet from "
                    "worker 1 (and half from worker 2) takes a long detour"
                ),
                faults=(
                    FaultSpec(
                        "straggler",
                        "worker:1",
                        rate=1.0,
                        jitter_s=40e-6,
                        slow_factor=8.0,
                        stop_s=0.1,
                    ),
                    FaultSpec(
                        "straggler",
                        "worker:2",
                        rate=0.5,
                        jitter_s=40e-6,
                        slow_factor=4.0,
                        stop_s=0.1,
                    ),
                ),
                pairs=4,
                duration_s=0.3,
                coords=10_000,
            ),
        )
    }


#: The named adversity presets the chaos CI matrix runs.
PRESETS: Dict[str, Scenario] = _presets()


def available_scenarios() -> list:
    """Names of the built-in presets."""
    return sorted(PRESETS)


def scenario_by_name(name: str) -> Scenario:
    """Look up a preset; raises ``KeyError`` with the available names."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {available_scenarios()}"
        ) from None
