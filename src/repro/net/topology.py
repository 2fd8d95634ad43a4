"""Network construction: devices + cables + routing.

:class:`Network` wraps a :class:`~repro.net.simulator.Simulator`, the
devices and their cables, and shortest-path static routes found by a
breadth-first walk over the cabling itself (switch ports, host uplinks).
Builders for the standard data-center shapes are provided: a dumbbell
(the classic shared-bottleneck microbenchmark), a two-tier leaf–spine,
and a k-ary fat-tree.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..obs.int_telemetry import is_reserved_hop_name
from ..packet.trim import TrimPolicy
from ..transforms.prng import derive_seed
from .host import Host
from .link import Device, Link
from .simulator import Simulator
from .switch import Switch

__all__ = ["Network", "dumbbell", "leaf_spine", "fat_tree"]

GBPS = 1e9


class Network:
    """A simulated network: hosts, switches, links, routes.

    Typical use::

        net = dumbbell(pairs=4)
        net.build_routes()
        ... attach transports to net.hosts[...] ...
        net.sim.run()
    """

    def __init__(self, sim: Optional[Simulator] = None, host_burst: int = 1) -> None:
        self.sim = sim or Simulator()
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, Switch] = {}
        # Serializer batch applied to host uplinks by connect().  Kept at
        # 1 by default: burst batching preserves delivery *times* but not
        # event ordering at tied instants, so enabling it can flip
        # drop decisions at a saturated shared queue.  The cluster fabric
        # opts in (Link.HOST_BURST) where no legacy baselines exist.
        if host_burst < 1:
            raise ValueError(f"host_burst must be >= 1, got {host_burst}")
        self.host_burst = host_burst

    # -- construction ----------------------------------------------------------

    def _check_name(self, name: str) -> None:
        if name in self.hosts or name in self.switches:
            raise ValueError(f"duplicate device name {name!r}")
        # Devices intern their name into the INT hop registry; names the
        # registry generates itself (link labels "a->b", the "hop<N>"
        # fallback) would alias other hops' telemetry.
        if is_reserved_hop_name(name):
            raise ValueError(
                f"device name {name!r} collides with the INT hop registry's "
                "interned ids (link labels 'src->dst' and 'hop<N>' are reserved)"
            )

    def add_host(self, name: str, **kwargs) -> Host:
        """Create and register a host."""
        self._check_name(name)
        host = Host(name, self.sim, **kwargs)
        self.hosts[name] = host
        return host

    def add_switch(self, name: str, **kwargs) -> Switch:
        """Create and register a switch."""
        self._check_name(name)
        switch = Switch(name, self.sim, **kwargs)
        self.switches[name] = switch
        return switch

    def device(self, name: str) -> Device:
        """Look up any device by name."""
        if name in self.hosts:
            return self.hosts[name]
        if name in self.switches:
            return self.switches[name]
        raise KeyError(f"unknown device {name!r}")

    def connect(
        self,
        a: str,
        b: str,
        rate_bps: float = 100 * GBPS,
        delay_s: float = 1e-6,
        drop_prob: float = 0.0,
        trim_prob: float = 0.0,
        seed: int = 0,
    ) -> None:
        """Wire a full-duplex cable between devices ``a`` and ``b``.

        ``drop_prob``/``trim_prob`` impose probabilistic impairment on
        both directions — the paper's "pre-set random probabilistic
        dropping/trimming" congestion emulation.
        """
        dev_a, dev_b = self.device(a), self.device(b)
        # Host uplinks may serialize bursts in one batch of events.  A
        # host's queue has an express band too, and a batch holds back an
        # express packet queued behind it (Link's ``burst``); switch
        # egress always keeps per-packet events because trimmed headers
        # ride its express band.
        link_ab = Link(
            self.sim, a, dev_b, rate_bps, delay_s, dev_a.make_queue(),
            drop_prob=drop_prob, trim_prob=trim_prob, seed=seed,
            burst=self.host_burst if isinstance(dev_a, Host) else 1,
        )
        link_ba = Link(
            self.sim, b, dev_a, rate_bps, delay_s, dev_b.make_queue(),
            drop_prob=drop_prob, trim_prob=trim_prob, seed=seed + 1,
            burst=self.host_burst if isinstance(dev_b, Host) else 1,
        )
        dev_a.attach(b, link_ab)
        dev_b.attach(a, link_ba)

    def set_impairment(
        self, a: str, b: str, drop_prob: float = 0.0, trim_prob: float = 0.0
    ) -> None:
        """Adjust probabilistic impairment on the a->b and b->a links."""
        for link in (self.link_between(a, b), self.link_between(b, a)):
            link.drop_prob = drop_prob
            link.trim_prob = trim_prob

    def build_routes(self, ecmp: bool = False, ecmp_seed: int = 0) -> None:
        """Install shortest-path routes toward every host on every switch.

        With ``ecmp=True`` every equal-cost next hop is installed and
        switches spread flows across them by per-flow hashing (the
        standard Clos load-balancing); otherwise a single deterministic
        shortest path is used.  ``ecmp_seed`` salts the fabric-wide flow
        hash through the shared ``"ecmp"`` PRNG purpose, so two runs of
        the same (topology, seed) place every flow identically while
        different seeds explore different collision patterns.
        """
        if ecmp:
            salt = derive_seed(ecmp_seed, purpose="ecmp") & 0xFFFFFFFF
            for switch in self.switches.values():
                switch.ecmp_salt = salt
        for dst in self.hosts:
            hops, toward = self._walk_from(dst)
            for name, switch in self.switches.items():
                if name not in toward:
                    continue  # no cable path to dst
                if ecmp:
                    closer = hops[name] - 1
                    switch.set_route(
                        dst, sorted(n for n in switch.ports if hops.get(n) == closer)
                    )
                else:
                    switch.set_route(dst, toward[name])

    def _walk_from(self, dst: str) -> Tuple[Dict[str, int], Dict[str, str]]:
        """Breadth-first walk of the cabling outward from host ``dst``.

        Returns ``{device: hops to dst}`` and ``{device: the neighbor it
        was first reached from}`` for every device with a path to
        ``dst``.  Devices are expanded in discovery order and their
        neighbors in ``connect`` order (``Switch.ports`` is filled by
        ``connect``; a host has one port, its uplink), which makes the
        single-path choice among equal-length paths a function of the
        build order alone.
        """
        hops = {dst: 0}
        toward: Dict[str, str] = {}
        reached = [dst]
        for node in reached:  # grows while walked: a FIFO frontier
            switch = self.switches.get(node)
            if switch is not None:
                neighbors: Iterable[str] = switch.ports
            else:
                uplink = self.hosts[node].uplink
                neighbors = () if uplink is None else (uplink.dst.name,)
            for neighbor in neighbors:
                if neighbor not in hops:
                    hops[neighbor] = hops[node] + 1
                    toward[neighbor] = node
                    reached.append(neighbor)
        return hops, toward

    # -- convenience -------------------------------------------------------------

    def flow_path(self, src: str, dst: str, flow_id: int) -> list:
        """The device names flow ``(src, dst, flow_id)`` traverses.

        Walks the installed routes with the switches' pure
        :meth:`~repro.net.switch.Switch.route_lookup` (no flow-table or
        counter side effects), so tests and fault planners can predict
        ECMP placements without perturbing the fabric.  Raises if the
        walk dead-ends or loops.
        """
        if src not in self.hosts or dst not in self.hosts:
            raise KeyError(f"flow endpoints must be hosts: {src!r} -> {dst!r}")
        host = self.hosts[src]
        if host.uplink is None:
            raise ValueError(f"host {src!r} has no uplink")
        path = [src]
        current = host.uplink.dst.name
        while current != dst:
            path.append(current)
            if len(path) > len(self.hosts) + len(self.switches):
                raise ValueError(f"routing loop on {src}->{dst} flow {flow_id}: {path}")
            switch = self.switches.get(current)
            if switch is None:
                raise ValueError(f"{src}->{dst} flow {flow_id} dead-ends at {current}")
            resolved = switch.route_lookup(src, dst, flow_id)
            if resolved is None:
                raise ValueError(f"{current} has no route toward {dst}")
            current = resolved[0]
        path.append(dst)
        return path

    def link_between(self, a: str, b: str) -> Link:
        """The egress link from ``a`` toward ``b``."""
        dev = self.device(a)
        if isinstance(dev, Host):
            if dev.uplink is None or dev.uplink.dst.name != b:
                raise KeyError(f"{a} has no link toward {b}")
            return dev.uplink
        return dev.ports[b]

    def total_switch_stats(self) -> Dict[str, int]:
        """Aggregate forwarded/trimmed/dropped/failover counters over all switches."""
        totals = {
            "forwarded": 0,
            "trimmed": 0,
            "dropped": 0,
            "reroutes": 0,
            "blackhole_drops": 0,
            "ports_down": 0,
        }
        for switch in self.switches.values():
            totals["forwarded"] += switch.stats.forwarded
            totals["trimmed"] += switch.stats.trimmed
            totals["dropped"] += switch.stats.dropped
            totals["reroutes"] += switch.stats.reroutes
            totals["blackhole_drops"] += switch.stats.blackhole
            totals["ports_down"] += len(switch.ports_down)
        return totals


def dumbbell(
    pairs: int = 2,
    edge_rate_bps: float = 100 * GBPS,
    bottleneck_rate_bps: float = 100 * GBPS,
    delay_s: float = 1e-6,
    trim_policy: Optional[TrimPolicy] = None,
    buffer_bytes: int = 60_000,
    ecn_threshold_bytes: Optional[int] = None,
    host_burst: int = 1,
) -> Network:
    """Classic dumbbell: senders -> S0 == S1 -> receivers.

    ``pairs`` sender/receiver pairs share one bottleneck cable, the
    canonical setup for studying congestion at a single queue.  Senders
    are ``tx0..`` and receivers ``rx0..``.
    """
    net = Network(host_burst=host_burst)
    for side in ("s0", "s1"):
        net.add_switch(
            side,
            trim_policy=trim_policy,
            buffer_bytes=buffer_bytes,
            ecn_threshold_bytes=ecn_threshold_bytes,
        )
    for i in range(pairs):
        net.add_host(f"tx{i}")
        net.add_host(f"rx{i}")
        net.connect(f"tx{i}", "s0", rate_bps=edge_rate_bps, delay_s=delay_s)
        net.connect(f"rx{i}", "s1", rate_bps=edge_rate_bps, delay_s=delay_s)
    net.connect("s0", "s1", rate_bps=bottleneck_rate_bps, delay_s=delay_s)
    net.build_routes()
    return net


def leaf_spine(
    leaves: int = 2,
    spines: int = 2,
    hosts_per_leaf: int = 4,
    host_rate_bps: float = 100 * GBPS,
    fabric_rate_bps: float = 100 * GBPS,
    delay_s: float = 1e-6,
    trim_policy: Optional[TrimPolicy] = None,
    buffer_bytes: int = 60_000,
    ecn_threshold_bytes: Optional[int] = None,
    ecmp: bool = False,
    ecmp_seed: int = 0,
    host_burst: int = 1,
) -> Network:
    """Two-tier Clos: every leaf connects to every spine.

    Hosts are named ``h<leaf>_<index>``; oversubscription is controlled
    by the ``hosts_per_leaf * host_rate / (spines * fabric_rate)`` ratio
    — the paper's motivating setting is an over-subscribed second-layer
    fabric between training clusters.
    """
    net = Network(host_burst=host_burst)
    for s in range(spines):
        net.add_switch(
            f"spine{s}",
            trim_policy=trim_policy,
            buffer_bytes=buffer_bytes,
            ecn_threshold_bytes=ecn_threshold_bytes,
        )
    for leaf in range(leaves):
        net.add_switch(
            f"leaf{leaf}",
            trim_policy=trim_policy,
            buffer_bytes=buffer_bytes,
            ecn_threshold_bytes=ecn_threshold_bytes,
        )
        for s in range(spines):
            net.connect(f"leaf{leaf}", f"spine{s}", rate_bps=fabric_rate_bps, delay_s=delay_s)
        for i in range(hosts_per_leaf):
            name = f"h{leaf}_{i}"
            net.add_host(name)
            net.connect(name, f"leaf{leaf}", rate_bps=host_rate_bps, delay_s=delay_s)
    net.build_routes(ecmp=ecmp, ecmp_seed=ecmp_seed)
    return net


def fat_tree(
    k: int = 4,
    rate_bps: float = 100 * GBPS,
    delay_s: float = 1e-6,
    trim_policy: Optional[TrimPolicy] = None,
    buffer_bytes: int = 60_000,
    ecn_threshold_bytes: Optional[int] = None,
    ecmp: bool = False,
    ecmp_seed: int = 0,
    host_burst: int = 1,
) -> Network:
    """A k-ary fat-tree (k even): k pods, k²/4 cores, k²*k/4 hosts.

    Kept small by default (k=4 → 16 hosts, 20 switches); used by the
    larger closed-loop trimming studies.
    """
    if k % 2 != 0 or k < 2:
        raise ValueError(f"fat-tree degree k must be even and >= 2, got {k}")
    net = Network(host_burst=host_burst)
    half = k // 2

    def sw(name: str) -> None:
        net.add_switch(
            name,
            trim_policy=trim_policy,
            buffer_bytes=buffer_bytes,
            ecn_threshold_bytes=ecn_threshold_bytes,
        )

    cores = [f"core{i}" for i in range(half * half)]
    for name in cores:
        sw(name)
    for pod in range(k):
        aggs = [f"agg{pod}_{i}" for i in range(half)]
        edges = [f"edge{pod}_{i}" for i in range(half)]
        for name in aggs + edges:
            sw(name)
        for a, agg in enumerate(aggs):
            for c in range(half):
                net.connect(agg, cores[a * half + c], rate_bps=rate_bps, delay_s=delay_s)
            for edge in edges:
                net.connect(agg, edge, rate_bps=rate_bps, delay_s=delay_s)
        for e, edge in enumerate(edges):
            for h in range(half):
                name = f"h{pod}_{e}_{h}"
                net.add_host(name)
                net.connect(name, edge, rate_bps=rate_bps, delay_s=delay_s)
    net.build_routes(ecmp=ecmp, ecmp_seed=ecmp_seed)
    return net
