"""Run a fault scenario on its dumbbell.

:func:`run_scenario` is the single entry point ``repro-faults run``,
``repro-timeline record`` and the invariant test suite all share: build
the scenario's dumbbell, arm a
:class:`~repro.faults.injector.FaultInjector`, push one RHT-encoded
gradient message per host pair through the chosen transport as a
:class:`~repro.transport.transfer.Transfer`, and drain the event loop.
The returned :class:`ScenarioRun` exposes everything the callers assert
on — delivery counts, surrender state, the deterministic fault event
log, per-link impairment counters and the simulator step count (the
no-livelock bound).

Faults on a fat-tree are the chaos campaign's job
(:mod:`repro.faults.campaign`): it draws its targets from the fabric
it runs on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core import RHTCodec, decode_message, depacketize_many, nmse, packetize_many
from ..core.packetizer import Outgoing
from ..net import Host, Network, dumbbell
from ..packet.packet import Packet
from ..transforms.prng import shared_generator
from ..transport import (
    AIMD,
    FixedWindow,
    GoBackNSender,
    MessageSenderBase,
    PullSender,
    Transfer,
    TrimmingSender,
)
from .injector import FaultInjector
from .scenarios import Scenario

__all__ = ["TRANSPORTS", "ScenarioRun", "run_scenario"]

#: The sender each transport name runs on a pair's sending host.
_SENDERS: Dict[str, Callable[[Host, int], MessageSenderBase]] = {
    "gbn": lambda host, flow: GoBackNSender(host, flow, cc=AIMD(initial_window=16)),
    "pull": lambda host, flow: PullSender(host, flow),
    "trimming": lambda host, flow: TrimmingSender(host, flow, cc=FixedWindow(initial_window=32)),
}

#: Transport names accepted by :func:`run_scenario` and the CLI.
TRANSPORTS = tuple(_SENDERS)

#: Base flow id for scenario traffic (clear of the test/bench ranges).
FLOW_BASE = 500


@dataclass
class ScenarioRun:
    """Everything observable about one completed scenario run."""

    scenario: str
    transport: str
    seed: int
    events: List[Dict]
    fault_counts: Dict[str, int]
    transfers: Dict[int, Transfer]
    network: Network
    injector: FaultInjector
    sim_time: float
    steps: int
    decode_nmse: Dict[int, float] = field(default_factory=dict)

    @property
    def senders(self) -> Dict[int, MessageSenderBase]:
        return {flow: t.sender for flow, t in self.transfers.items()}

    @property
    def deliveries(self) -> Dict[int, List[Packet]]:
        """The message each delivered flow's receiver handed over."""
        return {flow: t.wire for flow, t in self.transfers.items() if t.wire is not None}

    @property
    def delivery_calls(self) -> Dict[int, int]:
        return {flow: t.delivery_calls for flow, t in self.transfers.items() if t.delivery_calls}

    @property
    def surrenders(self) -> Dict[int, str]:
        """The reason each surrendered flow gave up."""
        return {
            flow: failure.reason
            for flow, t in self.transfers.items()
            if (failure := t.sender.failure) is not None
        }

    @property
    def flows(self) -> List[int]:
        return sorted(self.senders)

    @property
    def completed_flows(self) -> List[int]:
        return sorted(flow for flow, s in self.senders.items() if s.done)

    def summary(self) -> Dict:
        """Deterministic, JSON-ready digest of the run."""
        return {
            "scenario": self.scenario,
            "transport": self.transport,
            "seed": self.seed,
            "sim_time_s": self.sim_time,
            "steps": self.steps,
            "fault_counts": dict(sorted(self.fault_counts.items())),
            "fault_events": len(self.events),
            "flows": self.flows,
            "completed_flows": self.completed_flows,
            "surrendered_flows": sorted(self.surrenders),
            "delivery_calls": {
                str(flow): count for flow, count in sorted(self.delivery_calls.items())
            },
            "decode_nmse": {
                str(flow): round(value, 12)
                for flow, value in sorted(self.decode_nmse.items())
            },
        }


def run_scenario(
    scenario: Scenario,
    transport: str = "trimming",
    seed: int = 0,
    max_events: int = 2_000_000,
    instrument: Optional[Callable[[Network], None]] = None,
) -> ScenarioRun:
    """Execute ``scenario`` and return the full observable outcome.

    Args:
        scenario: the declarative fault schedule (see
            :mod:`repro.faults.scenarios`).
        transport: one of :data:`TRANSPORTS`.
        seed: run seed; drives the fault draws *and* the gradient data,
            so a ``(scenario, transport, seed)`` triple is fully
            deterministic.
        max_events: simulator safety valve — the no-livelock bound the
            invariant suite asserts against.
        instrument: observability seam — called with the built network
            after faults are armed but before any traffic is queued, so
            monitors/profilers (e.g. ``repro-timeline record``) can
            attach without perturbing the schedule already laid down.
    """
    if transport not in _SENDERS:
        raise ValueError(f"unknown transport {transport!r}; expected one of {TRANSPORTS}")
    net = dumbbell(
        pairs=scenario.pairs,
        edge_rate_bps=scenario.edge_rate_bps,
        bottleneck_rate_bps=scenario.bottleneck_rate_bps,
    )
    injector = FaultInjector(net, scenario, root_seed=seed)
    injector.install()
    if instrument is not None:
        instrument(net)

    codec = RHTCodec(root_seed=seed)
    originals: Dict[int, np.ndarray] = {}
    outgoing: List[Outgoing] = []
    for pair in range(scenario.pairs):
        flow = FLOW_BASE + pair
        grad = shared_generator(
            seed, epoch=0, message_id=flow, purpose="data"
        ).standard_normal(scenario.coords).astype(np.float32)
        originals[flow] = grad
        outgoing.append((codec.encode(grad, message_id=flow), f"tx{pair}", f"rx{pair}", flow))
    transfers: Dict[int, Transfer] = {}
    for (_, tx_name, _, flow), packets in zip(outgoing, packetize_many(outgoing)):
        sender = _SENDERS[transport](net.hosts[tx_name], flow)
        if scenario.max_retries is not None:
            sender.max_retries = scenario.max_retries
        transfers[flow] = Transfer(net, sender, packets)
        transfers[flow].start()

    net.sim.run(until=scenario.duration_s, max_events=max_events)

    delivered = [(flow, t.wire) for flow, t in transfers.items() if t.wire is not None]
    received = depacketize_many([wire for _, wire in delivered])
    decode_err = {
        flow: float(nmse(originals[flow], decode_message(message, wire, codec=codec)))
        for (flow, wire), message in zip(delivered, received)
    }

    return ScenarioRun(
        scenario=scenario.name,
        transport=transport,
        seed=seed,
        events=injector.events,
        fault_counts=injector.summary(),
        transfers=transfers,
        network=net,
        injector=injector,
        sim_time=net.sim.now,
        steps=net.sim.events_processed,
        decode_nmse=decode_err,
    )
