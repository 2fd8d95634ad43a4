"""Gradient aggregation through the full packet-level simulator.

The paper's evaluation simulates trimming probabilistically because
NCCL's wire format is closed.  This module is the step the paper could
not take: every gradient transfer of a training round is **actually
packetized, transmitted through the discrete-event network — shallow
trimming switches, cross traffic and all — and decoded from whatever
bytes arrive**.

:class:`NetworkChannel` plugs into the same
:class:`~repro.collectives.channel.GradientChannel` seam as the
Bernoulli :class:`~repro.train.trim_channel.TrimChannel`, so the DDP
trainer runs unmodified on top of the real simulated fabric, and the
channel additionally reports flow completion times per transfer.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..collectives.channel import GradientChannel
from ..core.codec import GradientCodec, nmse
from ..core.packetizer import decode_packets, packetize
from ..net.topology import Network
from ..obs.spans import get_span_tracer
from ..obs.trace import get_tracer
from ..packet.packet import Packet
from ..transport.base import TransportSurrender
from ..transport.congestion import CongestionControl, FixedWindow
from ..transport.trimming import TrimmingReceiver, TrimmingSender

__all__ = ["NetworkChannel"]


class NetworkChannel(GradientChannel):
    """Carry each gradient message over a simulated network.

    Args:
        network_factory: builds a fresh :class:`Network` per transfer
            (fresh queues/state keep transfers independent and
            deterministic); the factory may install cross-traffic before
            returning.
        codec: trimmable codec used on the wire.
        src / dst: host names inside the built network.
        make_cc: congestion-control factory for the sender.
        mtu: packet size.
        deadline_s: simulation-time budget per transfer; an incomplete
            transfer raises (a lost metadata packet would otherwise hang
            training silently).
        degraded_step: when True, a transport surrender or missed
            deadline yields a zero gradient (and bumps
            ``stats.rounds_surrendered``) instead of raising — the
            training loop skips the round and keeps going, the behaviour
            a production job wants under a transient network fault.
        max_retries: per-packet retry budget forwarded to the sender
            (None keeps the transport default).
    """

    def __init__(
        self,
        network_factory: Callable[[], Network],
        codec: GradientCodec,
        src: str,
        dst: str,
        make_cc: Optional[Callable[[], CongestionControl]] = None,
        mtu: int = 1500,
        deadline_s: float = 30.0,
        degraded_step: bool = False,
        max_retries: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.network_factory = network_factory
        self.codec = codec
        self.src = src
        self.dst = dst
        self.make_cc = make_cc or (lambda: FixedWindow(initial_window=128))
        self.mtu = mtu
        self.deadline_s = deadline_s
        self.degraded_step = degraded_step
        self.max_retries = max_retries
        self.fcts: List[float] = []
        self.last_trim_fraction = 0.0

    def _degrade(
        self, flat: np.ndarray, reason: str, epoch: int, message_id: int, worker: int
    ) -> np.ndarray:
        """Zero-gradient fallback for a round the transport gave up on."""
        self.count_surrender()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "channel.degraded_step",
                epoch=epoch,
                message_id=message_id,
                worker=worker,
                reason=reason,
            )
        return np.zeros_like(flat)

    def transfer(
        self, flat: np.ndarray, *, epoch: int = 0, message_id: int = 0, worker: int = 0
    ) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.float64)
        tracer = get_tracer()
        with tracer.span(
            "encode",
            codec=type(self.codec).__name__,
            coords=int(flat.size),
            epoch=epoch,
            message_id=message_id,
            worker=worker,
        ):
            enc = self.codec.encode(flat, epoch=epoch, message_id=message_id)
        net = self.network_factory()
        flow_id = 77_000 + worker
        packets = packetize(
            enc, src=self.src, dst=self.dst, mtu=self.mtu, flow_id=flow_id
        )

        # (completion time, wire): run(until=) below advances the clock
        # to the deadline, so the FCT must be read when the message lands.
        delivered: List[Tuple[float, List[Packet]]] = []
        surrendered: List[TransportSurrender] = []
        src_host, dst_host = net.hosts[self.src], net.hosts[self.dst]
        sender = TrimmingSender(src_host, flow_id=flow_id, cc=self.make_cc())
        if self.max_retries is not None:
            sender.max_retries = self.max_retries
        TrimmingReceiver(
            dst_host,
            flow_id=flow_id,
            on_message=lambda wire: delivered.append((net.sim.now, wire)),
        )
        start = net.sim.now
        st = get_span_tracer()
        span = st.begin(
            "channel.transfer",
            t=start,
            epoch=epoch,
            message_id=message_id,
            worker=worker,
            packets=len(packets),
        )
        try:
            with st.context(span):
                sender.send_message(packets, on_failure=surrendered.append)
            net.sim.run(until=start + self.deadline_s)
        finally:
            # A caller may keep ``net`` (to read its counters); its hosts
            # must not keep this transfer's endpoints — and through them
            # every packet of the message — alive once it is over.
            src_host.unregister_flow(flow_id)
            dst_host.unregister_flow(flow_id)
        if not delivered:
            self.stats.messages += 1
            self.stats.coordinates += flat.size
            if surrendered:
                st.end(span, t=net.sim.now, outcome="surrendered")
                if self.degraded_step:
                    return self._degrade(
                        flat, surrendered[0].reason, epoch, message_id, worker
                    )
                raise surrendered[0]
            st.end(span, t=net.sim.now, outcome="deadline")
            if self.degraded_step:
                return self._degrade(flat, "deadline", epoch, message_id, worker)
            raise RuntimeError(
                f"gradient transfer (epoch {epoch}, message {message_id}, "
                f"worker {worker}) missed its {self.deadline_s}s deadline"
            )
        done_at, wire = delivered[0]
        decoded = decode_packets(wire, self.codec)

        data_packets = [p for p in wire if p.grad_header and not p.grad_header.is_metadata]
        trimmed = sum(1 for p in data_packets if p.is_trimmed)
        self.fcts.append(done_at - start)
        self.last_trim_fraction = trimmed / max(1, len(data_packets))
        st.end(
            span,
            t=done_at,
            outcome="delivered",
            fct_s=self.fcts[-1],
            trim_fraction=self.last_trim_fraction,
        )
        self.stats.messages += 1
        self.stats.coordinates += flat.size
        self.stats.packets_total += len(data_packets)
        self.stats.packets_trimmed += trimmed
        self.stats.bytes_sent += sum(p.wire_size for p in wire)
        if tracer.enabled:
            tracer.event(
                "channel.transfer",
                sim_time=done_at,
                epoch=epoch,
                message_id=message_id,
                worker=worker,
                fct_s=self.fcts[-1],
                trim_fraction=self.last_trim_fraction,
                nmse=float(nmse(flat, decoded)),
            )
        return decoded

    @property
    def mean_fct(self) -> float:
        """Mean flow completion time across all transfers so far."""
        return float(np.mean(self.fcts)) if self.fcts else 0.0
