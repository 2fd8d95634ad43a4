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

from typing import Callable, List, Optional

import numpy as np

from ..collectives.channel import ChannelStats, GradientChannel
from ..core.codec import EncodedGradient, GradientCodec, nmse
from ..core.packetizer import decode_packets, packetize
from ..net.topology import Network
from ..obs.trace import get_tracer
from ..transport.congestion import CongestionControl, FixedWindow
from ..transport.transfer import Transfer
from ..transport.trimming import TrimmingSender

__all__ = ["NetworkChannel"]


class _GradientTransfer(Transfer):
    """A :class:`~repro.transport.transfer.Transfer` of one encoded gradient.

    Both gradient carriers — :class:`NetworkChannel` (a private network,
    run to its deadline) and the cluster wave (one shared network, every
    job launched at the same instant) — build one of these per message,
    :meth:`start` it, run the event loop themselves, and :meth:`finish`
    it, which decodes what arrived and counts it in their ``stats``.
    """

    def __init__(
        self,
        net: Network,
        codec: GradientCodec,
        enc: EncodedGradient,
        *,
        src: str,
        dst: str,
        flow_id: int,
        mtu: int,
        cc: CongestionControl,
        max_retries: Optional[int] = None,
    ) -> None:
        packets = packetize(enc, src=src, dst=dst, mtu=mtu, flow_id=flow_id)
        sender = TrimmingSender(net.hosts[src], flow_id=flow_id, cc=cc)
        if max_retries is not None:
            sender.max_retries = max_retries
        super().__init__(net, sender, packets)
        self.codec = codec
        self.coords = enc.metadata.original_length
        self.trim_fraction = 0.0

    def finish(self, stats: ChannelStats) -> Optional[np.ndarray]:
        """Close the flow and account for it in ``stats``.

        Returns the decoded vector, or None when nothing was delivered:
        ``sender.failure`` then holds the surrender, or is None for a
        missed deadline.
        """
        self.close()
        stats.messages += 1
        stats.coordinates += self.coords
        if self.wire is None:
            return None
        data = [p for p in self.wire if p.is_gradient and not p.is_metadata]
        trimmed = sum(1 for p in data if p.is_trimmed)
        self.trim_fraction = trimmed / max(1, len(data))
        stats.packets_total += len(data)
        stats.packets_trimmed += trimmed
        stats.bytes_sent += sum(p.wire_size for p in self.wire)
        return decode_packets(self.wire, self.codec)


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
        message = _GradientTransfer(
            net,
            self.codec,
            enc,
            src=self.src,
            dst=self.dst,
            flow_id=77_000 + worker,
            mtu=self.mtu,
            cc=self.make_cc(),
            max_retries=self.max_retries,
        )
        start = net.sim.now
        span = tracer.begin(
            "channel.transfer",
            t=start,
            epoch=epoch,
            message_id=message_id,
            worker=worker,
            packets=len(message.packets),
        )
        try:
            with tracer.context(span):
                message.start()
            net.sim.run(until=start + self.deadline_s)
        finally:
            decoded = message.finish(self.stats)
        if decoded is None:
            surrender = message.sender.failure
            if surrender is not None:
                tracer.end(span, t=net.sim.now, outcome="surrendered")
                if self.degraded_step:
                    return self._degrade(
                        flat, surrender.reason, epoch, message_id, worker
                    )
                raise surrender
            tracer.end(span, t=net.sim.now, outcome="deadline")
            if self.degraded_step:
                return self._degrade(flat, "deadline", epoch, message_id, worker)
            raise RuntimeError(
                f"gradient transfer (epoch {epoch}, message {message_id}, "
                f"worker {worker}) missed its {self.deadline_s}s deadline"
            )
        self.fcts.append(message.fct_s)
        self.last_trim_fraction = message.trim_fraction
        tracer.end(
            span,
            t=message.done_s,
            outcome="delivered",
            fct_s=self.fcts[-1],
            trim_fraction=self.last_trim_fraction,
        )
        if tracer.enabled:
            tracer.event(
                "channel.transfer",
                sim_time=message.done_s,
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
