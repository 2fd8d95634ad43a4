"""Run a fault scenario against a dumbbell or fat-tree topology.

:func:`run_scenario` is the single entry point the CLI, the chaos CI
matrix and the invariant test suite all share: build the scenario's
topology, arm a :class:`~repro.faults.injector.FaultInjector`, push one
RHT-encoded gradient message per host pair through the chosen
transport as a :class:`~repro.transport.transfer.Transfer`, and drain
the event loop.  The returned
:class:`ScenarioRun` exposes everything the callers assert on —
delivery counts, surrender state, the deterministic fault event log,
per-link impairment counters and the simulator step count (the
no-livelock bound).

Scenarios are written against the dumbbell's names (``s0->s1``,
``s1:rx0``, ``worker:<rank>``).  On a fat-tree the harness *remaps*
those roles onto the ECMP path pair 0's flow actually takes — the
bottleneck fault lands on the first fabric link of that path, the ACK
fault on the reverse path, the receiver blackout on the receiver's edge
port, a ``switch:s0`` device death on the aggregation tier — so the
same presets exercise a multipath fabric without rewriting them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core import RHTCodec, decode_packets, nmse, packetize
from ..net import Host, Network, dumbbell
from ..net.crosstraffic import CROSS_TRAFFIC_FLOW_BASE, OnOffFlow
from ..net.topology import fat_tree
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

#: Topology names accepted by :func:`run_scenario`.
TOPOLOGIES = ("dumbbell", "fat-tree")

#: Base flow id for scenario traffic (clear of the test/bench ranges).
FLOW_BASE = 500

#: Flow id of the optional fat-tree background tenant.
BACKGROUND_FLOW = CROSS_TRAFFIC_FLOW_BASE + 777


def _fat_tree_hosts(pair: int) -> Tuple[str, str]:
    """Pair ``i``'s endpoints on the k=4 fat-tree: pod 0 -> pod 1."""
    if pair >= 4:
        raise ValueError(
            f"fat-tree harness places at most 4 pairs (pod capacity), got pair {pair}"
        )
    return f"h0_{pair // 2}_{pair % 2}", f"h1_{pair // 2}_{pair % 2}"


def _remap_scenario(scenario: Scenario, net: Network) -> Tuple[Scenario, Dict[int, str]]:
    """Rewrite dumbbell fault targets onto the fat-tree's fabric.

    The roles transfer along the path pair 0's flow actually hashes to
    (``Network.flow_path`` is pure, so this predicts without
    perturbing): ``s0->s1`` becomes that path's first fabric link,
    ``s1->s0`` the reverse path's, ``s1:rx<i>`` the receiver's edge
    port, ``s0:s1`` (port-scoped kinds) the first fabric port on the
    forward path, and ``switch:s0``/``switch:s1`` the aggregation
    switch on the sender/receiver side of that path — the tier where a
    device death still leaves the edge an equal-cost alternative to
    reroute onto.  Worker ranks map to the pod-0 sender hosts.
    """
    tx0, rx0 = _fat_tree_hosts(0)
    forward = net.flow_path(tx0, rx0, FLOW_BASE)
    reverse = net.flow_path(rx0, tx0, FLOW_BASE)
    mapping = {
        "s0->s1": f"{forward[1]}->{forward[2]}",
        "s1->s0": f"{reverse[1]}->{reverse[2]}",
    }
    # Aggregation-tier devices on pair 0's path (fall back to the edge
    # on fabrics too shallow to have one).
    agg_up = forward[2] if len(forward) > 4 else forward[1]
    agg_down = forward[-3] if len(forward) > 4 else forward[-2]
    switch_mapping = {"switch:s0": f"switch:{agg_up}", "switch:s1": f"switch:{agg_down}"}
    faults = []
    for spec in scenario.faults:
        target = spec.target
        if target in mapping:
            target = mapping[target]
        elif spec.fault == "switch-down":
            target = switch_mapping.get(target, target)
        elif spec.fault in ("blackout", "port-flap") and ":" in target:
            switch_name, neighbor = target.split(":", 1)
            if neighbor.startswith("rx"):
                rx_host = _fat_tree_hosts(int(neighbor[2:]))[1]
                edge = net.flow_path(tx0, rx_host, FLOW_BASE)[-2]
                target = f"{edge}:{rx_host}"
            elif (switch_name, neighbor) == ("s0", "s1"):
                target = f"{forward[1]}:{forward[2]}"
            elif (switch_name, neighbor) == ("s1", "s0"):
                target = f"{reverse[1]}:{reverse[2]}"
        faults.append(replace(spec, target=target) if target != spec.target else spec)
    worker_hosts = {
        rank: _fat_tree_hosts(rank)[0] for rank in range(min(scenario.pairs, 4))
    }
    return replace(scenario, faults=tuple(faults)), worker_hosts


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
    max_retries: Optional[int] = None,
    instrument: Optional[Callable[[Network], None]] = None,
    topology: str = "dumbbell",
    background_traffic: bool = False,
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
        max_retries: per-packet retry budget override (None falls back
            to ``scenario.max_retries``, then the transport default).
        instrument: observability seam — called with the built network
            after faults are armed but before any traffic is queued, so
            monitors/profilers (e.g. ``repro-timeline record``) can
            attach without perturbing the schedule already laid down.
        topology: one of :data:`TOPOLOGIES`.  ``fat-tree`` runs the same
            scenario on an ECMP-routed k=4 fat-tree (pairs cross from
            pod 0 to pod 1, fault targets remapped; max 4 pairs).
        background_traffic: fat-tree only — add one elephant tenant flow
            (pod 2 -> pod 1) contending with the scenario traffic.
    """
    if max_retries is None:
        max_retries = scenario.max_retries
    if transport not in _SENDERS:
        raise ValueError(f"unknown transport {transport!r}; expected one of {TRANSPORTS}")
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}; expected one of {TOPOLOGIES}")
    worker_hosts: Dict[int, str] = {}
    background: Optional[OnOffFlow] = None
    if topology == "fat-tree":
        net = fat_tree(
            k=4,
            rate_bps=scenario.edge_rate_bps,
            ecmp=True,
            ecmp_seed=seed,
        )
        scenario, worker_hosts = _remap_scenario(scenario, net)
        pair_hosts = [_fat_tree_hosts(pair) for pair in range(scenario.pairs)]
        if background_traffic:
            # Unregistered flows are silently counted at the receiving
            # host, so the tenant needs no transport endpoints.  The
            # active window is capped: scenario durations are drain
            # budgets (seconds), while all fault schedules and gradient
            # flows live in the first milliseconds — a tenant streaming
            # through the whole drain would add millions of idle-time
            # events and defeat the no-livelock step bounds.
            background = OnOffFlow(
                net.sim,
                net.hosts["h2_0_0"],
                "h1_0_0",
                rate_bps=scenario.edge_rate_bps / 4,
                burst_s=2e-3,
                idle_s=2e-4,
                seed=seed,
                flow_id=BACKGROUND_FLOW,
                stop_at=min(scenario.duration_s, 20e-3),
            )
    else:
        if background_traffic:
            raise ValueError("background_traffic requires topology='fat-tree'")
        net = dumbbell(
            pairs=scenario.pairs,
            edge_rate_bps=scenario.edge_rate_bps,
            bottleneck_rate_bps=scenario.bottleneck_rate_bps,
        )
        pair_hosts = [(f"tx{pair}", f"rx{pair}") for pair in range(scenario.pairs)]
    injector = FaultInjector(net, scenario, root_seed=seed, worker_hosts=worker_hosts)
    injector.install()
    if background is not None:
        background.start()
    if instrument is not None:
        instrument(net)

    codec = RHTCodec(root_seed=seed)
    originals: Dict[int, np.ndarray] = {}
    transfers: Dict[int, Transfer] = {}
    for pair, (tx_name, rx_name) in enumerate(pair_hosts):
        flow = FLOW_BASE + pair
        sender = _SENDERS[transport](net.hosts[tx_name], flow)
        if max_retries is not None:
            sender.max_retries = max_retries
        grad = shared_generator(
            seed, epoch=0, message_id=flow, purpose="data"
        ).standard_normal(scenario.coords).astype(np.float32)
        originals[flow] = grad
        packets = packetize(
            codec.encode(grad, message_id=flow),
            src=tx_name,
            dst=rx_name,
            flow_id=flow,
        )
        transfers[flow] = Transfer(net, sender, packets)
        transfers[flow].start()

    net.sim.run(until=scenario.duration_s, max_events=max_events)

    decode_err = {
        flow: float(nmse(originals[flow], decode_packets(t.wire, codec=codec)))
        for flow, t in transfers.items()
        if t.wire is not None
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
