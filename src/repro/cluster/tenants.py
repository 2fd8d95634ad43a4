"""Tenant workloads: attributable background traffic on a shared fabric.

A :class:`TenantWorkload` turns one :class:`~repro.cluster.scenario.TenantSpec`
into live :mod:`repro.net.crosstraffic` generators on the cluster's
network.  Every flow the tenant emits carries a flow id from the
tenant's private block above :data:`~repro.net.crosstraffic.CROSS_TRAFFIC_FLOW_BASE`,
so switch trim/drop verdicts are attributable to the tenant by id range
alone — the same mechanism that attributes training traffic to jobs.
"""

from __future__ import annotations

from typing import List, Optional

from ..net.crosstraffic import CROSS_TRAFFIC_FLOW_BASE, IncastBurst, OnOffFlow
from ..net.topology import Network
from ..transforms.prng import derive_seed
from .scenario import TenantSpec

__all__ = ["TENANT_FLOW_BLOCK", "tenant_flow_base", "TenantWorkload"]

#: Flow ids per tenant; tenant ``i`` owns ``[base + (i+1)*BLOCK, ...)``.
TENANT_FLOW_BLOCK = 10_000


def tenant_flow_base(tenant_index: int) -> int:
    """First flow id of tenant ``tenant_index``'s private block."""
    return CROSS_TRAFFIC_FLOW_BASE + (tenant_index + 1) * TENANT_FLOW_BLOCK


class TenantWorkload:
    """One tenant's generators, placed on concrete hosts.

    Args:
        net: the shared cluster network.
        spec: the declarative tenant description.
        tenant_index: position in the scenario's tenant tuple (fixes the
            flow-id block and the PRNG stream).
        seed: the run seed; all on/off draws derive from it.
        src_hosts: sender host names (incast fan-in or one per flow).
        dst_hosts: receiver host names (incast uses the first only).
    """

    def __init__(
        self,
        net: Network,
        spec: TenantSpec,
        tenant_index: int,
        seed: int,
        src_hosts: List[str],
        dst_hosts: List[str],
    ) -> None:
        if not src_hosts or not dst_hosts:
            raise ValueError(f"tenant {spec.name!r} needs sender and receiver hosts")
        self.net = net
        self.spec = spec
        self.tenant_index = tenant_index
        self.seed = seed
        self.src_hosts = list(src_hosts)
        self.dst_hosts = list(dst_hosts)
        self.flow_base = tenant_flow_base(tenant_index)
        self._onoff: List[OnOffFlow] = []
        self._incast: Optional[IncastBurst] = None
        self._active = False

    # -- lifecycle --------------------------------------------------------------

    def install(self) -> None:
        """Create the generators and schedule their first activity."""
        self._active = True
        if self.spec.pattern == "incast":
            self._install_incast()
        else:
            self._install_onoff()

    def stop(self) -> None:
        """Cease after in-flight packets drain."""
        self._active = False
        for flow in self._onoff:
            flow.stop()

    @property
    def packets_emitted(self) -> int:
        """Total packets this tenant has injected so far."""
        total = sum(flow.packets_emitted for flow in self._onoff)
        if self._incast is not None:
            total += self._incast.packets_emitted
        return total

    @property
    def flow_count(self) -> int:
        return len(self._onoff) if self._onoff else len(self.src_hosts)

    # -- patterns ---------------------------------------------------------------

    def _flow_seed(self, index: int) -> int:
        return derive_seed(
            self.seed,
            epoch=self.tenant_index,
            message_id=index,
            purpose="crosstraffic",
        )

    def _install_onoff(self) -> None:
        spec = self.spec
        # Elephants hold the line for long bursts; mice chatter in short
        # small-packet spurts — the classic heavy-tail split.
        if spec.pattern == "elephant":
            burst_s, idle_s, packet_bytes = 2e-3, 2e-4, 1458
        else:
            burst_s, idle_s, packet_bytes = 3e-5, 1.5e-4, 256
        for index in range(spec.flows):
            src = self.net.hosts[self.src_hosts[index % len(self.src_hosts)]]
            dst = self.dst_hosts[index % len(self.dst_hosts)]
            flow = OnOffFlow(
                self.net.sim,
                src,
                dst,
                rate_bps=spec.rate_bps,
                burst_s=burst_s,
                idle_s=idle_s,
                packet_bytes=packet_bytes,
                seed=self._flow_seed(index),
                flow_id=self.flow_base + index,
                stop_at=spec.stop_s,
            )
            flow.start(delay=spec.start_s)
            self._onoff.append(flow)

    def _install_incast(self) -> None:
        spec = self.spec
        sim = self.net.sim
        senders = [self.net.hosts[name] for name in self.src_hosts[: spec.flows]]
        self._incast = IncastBurst(
            sim,
            senders,
            self.dst_hosts[0],
            burst_bytes=spec.burst_bytes,
            seed=self._flow_seed(0),
            flow_id_base=self.flow_base,
        )

        def refire() -> None:
            if not self._active:
                return
            if spec.stop_s is not None and sim.now >= spec.stop_s:
                return
            assert self._incast is not None
            self._incast.fire(0.0)
            sim.schedule(spec.period_s, refire)

        sim.schedule(spec.start_s, refire)
