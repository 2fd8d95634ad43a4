"""Deterministic fault injection over the simulated network.

:class:`FaultInjector` takes a :class:`~repro.faults.scenarios.Scenario`
and arms the network's existing seams:

* per-packet faults (``corrupt``, ``ack-loss``, ``duplicate``,
  ``reorder``, ``straggler``, ``gray-failure``) compose into one
  :data:`~repro.net.link.DeliveryHook` per targeted link;
* ``flap`` schedules ``Link.up`` transitions on the event loop;
* ``blackout`` schedules :meth:`repro.net.switch.Switch.set_port_down`
  (FIB-visible: surviving equal-cost legs absorb the flows after the
  reroute-convergence delay);
* ``port-flap`` flaps one egress port at layer 1 — the link loses
  everything while dark but the FIB never updates, so nothing reroutes;
* ``switch-down`` kills a whole device via
  :meth:`repro.net.switch.Switch.set_failed` and tells every adjacent
  switch to take its port toward the corpse down, so their flows
  reroute around it;
* worker-scoped kinds resolve ``worker:<rank>`` to host ``tx<rank>``:
  ``crash`` takes both directions of the host's uplink down, and
  ``straggler`` delays that host's outbound packets.

Every random decision is drawn from a
:func:`~repro.transforms.prng.shared_generator` stream keyed by
``(root_seed, spec index, purpose="fault")``, so a run is a pure
function of ``(scenario, seed)``: the injected fault sequence — and the
JSONL event log it produces — is byte-identical across repeats.

Corruption mutates a **copy** of the packet (``dataclasses.replace``).
The sender still holds a reference to the original for retransmission;
flipping bits in place would poison every future retransmit and turn a
transient fault into a permanent one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Tuple

import numpy as np

from ..net.host import Host
from ..net.link import DeliveryHook, Link
from ..net.topology import Network
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..packet.packet import Packet
from ..transforms.prng import shared_generator
from .scenarios import FaultSpec, Scenario

__all__ = ["FaultInjector"]


class FaultInjector:
    """Arms a scenario's fault specs against a built network.

    Args:
        network: a :class:`repro.net.topology.Network` (already wired).
        scenario: the declarative schedule to install.
        root_seed: the run seed; all fault draws derive from it.

    Attributes:
        events: append-only, JSON-ready fault log.  Every record carries
            the simulation time (never wall-clock time) plus enough
            identity (flow, seq) to line up with transport traces; the
            registry counts it into ``repro_faults_injected_total``.
        counts: per fault-kind totals.
    """

    def __init__(self, network: Network, scenario: Scenario, root_seed: int) -> None:
        self.network = network
        self.scenario = scenario
        self.root_seed = root_seed
        self.events: List[Dict] = []
        self.counts: Dict[str, int] = {}
        self._hooked_links: Dict[str, List] = {}
        self._installed = False
        events = self.events  # the hook below must not hold the injector
        injected = get_registry().counter("repro_faults_injected_total", ("fault", "target"))
        published = 0

        def _publish_metrics() -> None:
            """Count the fault-log entries the registry has not seen yet."""
            nonlocal published
            for event in events[published:]:
                injected.inc(fault=event["fault"], target=event["target"])
            published = len(events)

        get_registry().add_flush_hook(_publish_metrics, self)

    # -- public API -------------------------------------------------------------

    def install(self) -> None:
        """Arm every fault spec.  Idempotence guard: call once per run."""
        if self._installed:
            raise RuntimeError("injector already installed")
        self._installed = True
        for index, spec in enumerate(self.scenario.faults):
            gen = shared_generator(
                self.root_seed, epoch=0, message_id=index, purpose="fault"
            )
            if spec.fault == "flap":
                self._install_flap(spec)
            elif spec.fault == "blackout":
                self._install_blackout(spec)
            elif spec.fault == "port-flap":
                self._install_port_flap(spec)
            elif spec.fault == "switch-down":
                self._install_switch_down(spec)
            elif spec.fault == "gray-failure":
                self._install_gray(spec, gen)
            elif spec.fault == "crash":
                self._install_crash(spec)
            elif spec.fault == "straggler":
                self._install_straggler(spec, gen)
            else:
                self._install_per_packet(spec, gen)
        for label, stages in self._hooked_links.items():
            link = self._link(label)
            link.delivery_hook = self._compose(stages)

    # -- shared plumbing --------------------------------------------------------

    def _link(self, label: str) -> Link:
        src, dst = label.split("->", 1)
        link = self.network.link_between(src, dst)
        if link is None:
            raise ValueError(f"no link {label!r} in topology")
        return link

    def _record(self, fault: str, target: str, **detail: Any) -> None:
        self.counts[fault] = self.counts.get(fault, 0) + 1
        event = {"t": self.network.sim.now, "fault": fault, "target": target}
        event.update(detail)
        self.events.append(event)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("fault.inject", sim_time=self.network.sim.now, **{
                "fault": fault, "target": target, **detail,
            })

    @staticmethod
    def _compose(stages: List) -> DeliveryHook:
        """Chain per-packet stages into one DeliveryHook.

        Each stage maps one ``(extra_delay, packet)`` entry to a list of
        them; the chain folds left so e.g. a duplicated packet can still
        be independently corrupted.
        """

        def hook(packet: Packet) -> List[Tuple[float, Packet]]:
            deliveries: List[Tuple[float, Packet]] = [(0.0, packet)]
            for stage in stages:
                nxt: List[Tuple[float, Packet]] = []
                for entry in deliveries:
                    nxt.extend(stage(entry))
                deliveries = nxt
            return deliveries

        return hook

    # -- per-packet faults ------------------------------------------------------

    def _install_per_packet(self, spec: FaultSpec, gen: np.random.Generator) -> None:
        sim = self.network.sim
        target = spec.target

        def stage(entry: Tuple[float, Packet]) -> List[Tuple[float, Packet]]:
            delay, packet = entry
            if not spec.active_at(sim.now):
                return [entry]
            if spec.fault == "ack-loss":
                if not packet.is_ack or gen.random() >= spec.rate:
                    return [entry]
                self._record(
                    "ack-loss", target, flow_id=packet.flow_id, seq=packet.seq
                )
                return []
            if spec.fault == "corrupt":
                # Control packets and empty payloads carry nothing to flip.
                if packet.is_ack or not packet.payload:
                    return [entry]
                if gen.random() >= spec.rate:
                    return [entry]
                corrupted = self._flip_bits(packet, gen, spec.bit_flips)
                self._record(
                    "corrupt",
                    target,
                    flow_id=packet.flow_id,
                    seq=packet.seq,
                    bit_flips=spec.bit_flips,
                )
                return [(delay, corrupted)]
            if spec.fault == "duplicate":
                if gen.random() >= spec.rate:
                    return [entry]
                self._record(
                    "duplicate", target, flow_id=packet.flow_id, seq=packet.seq,
                    is_ack=packet.is_ack,
                )
                return [entry, (delay + max(spec.jitter_s, 1e-9), packet)]
            # reorder: hold the packet back by a bounded, seeded jitter.
            if packet.is_ack or gen.random() >= spec.rate:
                return [entry]
            extra = float(gen.uniform(0.0, spec.jitter_s))
            self._record(
                "reorder",
                target,
                flow_id=packet.flow_id,
                seq=packet.seq,
                extra_delay_s=extra,
            )
            return [(delay + extra, packet)]

        self._hooked_links.setdefault(target, []).append(stage)

    @staticmethod
    def _flip_bits(packet: Packet, gen: np.random.Generator, bit_flips: int) -> Packet:
        buf = bytearray(packet.payload)
        positions = gen.integers(0, len(buf) * 8, size=bit_flips)
        for pos in positions:
            buf[int(pos) // 8] ^= 1 << (int(pos) % 8)
        # The stale checksum travels with the mangled payload — that is
        # exactly how the receiver detects the corruption.
        return replace(packet, payload=bytes(buf))

    # -- worker-scoped faults ---------------------------------------------------

    def _worker_host(self, spec: FaultSpec) -> Tuple[Host, Link]:
        """Resolve ``worker:<rank>`` to host ``tx<rank>`` and its uplink."""
        name = f"tx{spec.worker_rank}"
        host = self.network.hosts.get(name)
        if host is None or host.uplink is None:
            raise ValueError(f"no wired host {name!r} for target {spec.target!r}")
        return host, host.uplink

    def _install_crash(self, spec: FaultSpec) -> None:
        """Kill both directions of the worker's uplink — a dead NIC."""
        host, uplink = self._worker_host(spec)
        downlink = self.network.link_between(uplink.dst.name, host.name)
        # Burst batching pre-schedules deliveries; a link that can die
        # mid-burst must serialize one packet at a time so the crash
        # loses exactly what is on the wire.  The downlink is a switch
        # egress, which Network.connect already builds with burst=1.
        uplink.burst = 1
        sim = self.network.sim

        def die() -> None:
            uplink.up = False
            downlink.up = False
            self._record("crash", spec.target, state="down", host=host.name)

        def revive() -> None:
            uplink.up = True
            downlink.up = True
            self._record("crash", spec.target, state="up", host=host.name)

        sim.schedule(spec.start_s, die)
        if spec.stop_s is not None:
            sim.schedule(spec.stop_s, revive)

    def _install_straggler(self, spec: FaultSpec, gen: np.random.Generator) -> None:
        """Slow the worker's outbound data path by a fixed extra delay."""
        host, uplink = self._worker_host(spec)
        label = f"{host.name}->{uplink.dst.name}"
        sim = self.network.sim

        def stage(entry: Tuple[float, Packet]) -> List[Tuple[float, Packet]]:
            delay, packet = entry
            if not spec.active_at(sim.now) or packet.is_ack:
                return [entry]
            if gen.random() >= spec.rate:
                return [entry]
            self._record(
                "straggler",
                spec.target,
                flow_id=packet.flow_id,
                seq=packet.seq,
                extra_delay_s=spec.jitter_s,
            )
            return [(delay + spec.jitter_s, packet)]

        self._hooked_links.setdefault(label, []).append(stage)

    # -- scheduled faults -------------------------------------------------------

    def _install_flap(self, spec: FaultSpec) -> None:
        link = self._link(spec.target)
        # See _install_crash: a flapping link must not batch deliveries
        # (the target may be a host uplink).
        link.burst = 1
        sim = self.network.sim

        def go_down() -> None:
            if spec.stop_s is not None and sim.now >= spec.stop_s:
                return
            link.up = False
            self._record("flap", spec.target, state="down")
            sim.schedule(spec.down_s, go_up)

        def go_up() -> None:
            link.up = True
            self._record("flap", spec.target, state="up")
            if spec.period_s > 0.0:
                sim.schedule(spec.period_s - spec.down_s, go_down)

        sim.schedule(spec.start_s, go_down)

    def _install_blackout(self, spec: FaultSpec) -> None:
        switch_name, neighbor = spec.target.split(":", 1)
        switch = self.network.switches.get(switch_name)
        if switch is None:
            raise ValueError(f"no switch {switch_name!r} in topology")
        if neighbor not in switch.ports:
            raise ValueError(f"{switch_name}: no port toward {neighbor!r}")
        sim = self.network.sim

        def go_dark() -> None:
            switch.set_port_down(neighbor, True)
            self._record("blackout", spec.target, state="down")
            sim.schedule(spec.down_s, restore)

        def restore() -> None:
            switch.set_port_down(neighbor, False)
            self._record("blackout", spec.target, state="up")
            if spec.period_s > 0.0 and (
                spec.stop_s is None or sim.now + spec.period_s - spec.down_s < spec.stop_s
            ):
                sim.schedule(spec.period_s - spec.down_s, go_dark)

        sim.schedule(spec.start_s, go_dark)

    def _install_port_flap(self, spec: FaultSpec) -> None:
        """Layer-1 flap of one egress port: loss without FIB reaction.

        The egress link toward the neighbor goes dark like a ``flap``,
        but through the *switch's* port — the control plane never hears
        about it, so unlike ``blackout`` no flow ever reroutes.  The
        gray twin of a blackout: same loss, none of the healing.
        """
        switch_name, neighbor = spec.target.split(":", 1)
        switch = self.network.switches.get(switch_name)
        if switch is None:
            raise ValueError(f"no switch {switch_name!r} in topology")
        link = switch.ports.get(neighbor)
        if link is None:
            raise ValueError(f"{switch_name}: no port toward {neighbor!r}")
        sim = self.network.sim

        def go_down() -> None:
            if spec.stop_s is not None and sim.now >= spec.stop_s:
                return
            link.up = False
            self._record("port-flap", spec.target, state="down")
            sim.schedule(spec.down_s, go_up)

        def go_up() -> None:
            link.up = True
            self._record("port-flap", spec.target, state="up")
            if spec.period_s > 0.0:
                sim.schedule(spec.period_s - spec.down_s, go_down)

        sim.schedule(spec.start_s, go_down)

    def _install_switch_down(self, spec: FaultSpec) -> None:
        """Kill a whole switch; adjacent FIBs route around the corpse."""
        name = spec.target.split(":", 1)[1]
        switch = self.network.switches.get(name)
        if switch is None:
            raise ValueError(f"no switch {name!r} in topology")
        neighbors = [
            other
            for other in self.network.switches.values()
            if other is not switch and name in other.ports
        ]
        sim = self.network.sim

        def die() -> None:
            switch.set_failed(True)
            for other in neighbors:
                other.set_port_down(name, True)
            self._record(
                "switch-down", spec.target, state="down", switch=name,
                adjacent=sorted(other.name for other in neighbors),
            )
            sim.schedule(spec.down_s, revive)

        def revive() -> None:
            switch.set_failed(False)
            for other in neighbors:
                other.set_port_down(name, False)
            self._record("switch-down", spec.target, state="up", switch=name)
            if spec.period_s > 0.0 and (
                spec.stop_s is None or sim.now + spec.period_s - spec.down_s < spec.stop_s
            ):
                sim.schedule(spec.period_s - spec.down_s, die)

        sim.schedule(spec.start_s, die)

    def _install_gray(self, spec: FaultSpec, gen: np.random.Generator) -> None:
        """Gray failure on one leg: silent drops + corruption, port 'up'.

        The nastiest fabric failure mode: no flap, no blackout, no FIB
        event — the leg just eats ``rate`` of its packets and mangles
        ``corrupt_rate`` of the survivors.  Nothing reroutes; only
        end-to-end integrity (CRC seals, retransmits) catches it.
        """
        sim = self.network.sim
        target = spec.target

        def stage(entry: Tuple[float, Packet]) -> List[Tuple[float, Packet]]:
            delay, packet = entry
            if not spec.active_at(sim.now):
                return [entry]
            if spec.rate > 0.0 and gen.random() < spec.rate:
                self._record(
                    "gray-failure",
                    target,
                    effect="drop",
                    flow_id=packet.flow_id,
                    seq=packet.seq,
                    is_ack=packet.is_ack,
                )
                return []
            if (
                spec.corrupt_rate > 0.0
                and not packet.is_ack
                and packet.payload
                and gen.random() < spec.corrupt_rate
            ):
                corrupted = self._flip_bits(packet, gen, spec.bit_flips)
                self._record(
                    "gray-failure",
                    target,
                    effect="corrupt",
                    flow_id=packet.flow_id,
                    seq=packet.seq,
                    bit_flips=spec.bit_flips,
                )
                return [(delay, corrupted)]
            return [entry]

        self._hooked_links.setdefault(target, []).append(stage)

    # -- reporting --------------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """Total injections per fault kind (sorted, JSON-ready)."""
        return dict(sorted(self.counts.items()))
