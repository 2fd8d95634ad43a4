"""Bernoulli packet-trim channel — the paper's congestion emulation.

The authors could not change NCCL's wire format, so their evaluation
"simulate[s] the effect of congestion using pre-set random probabilistic
dropping/trimming": each gradient packet is independently trimmed with a
fixed probability, and trimmed coordinates are replaced by their decoded
quantized value.  :class:`TrimChannel` reproduces that on the real wire
format: encode → packetize → per-packet Bernoulli cut or drop →
``decode_packets``, the receive path of the simulated fabric, with an
optional Section 5.4 transcript for record/replay.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..collectives.channel import GradientChannel
from ..core.codec import GradientCodec, nmse
from ..core.packetizer import decode_packets, packetize
from ..obs.trace import get_tracer
from ..transforms.prng import shared_generator
from .replay import TrimTranscript

__all__ = ["TrimChannel"]


class TrimChannel(GradientChannel):
    """Codec + per-packet Bernoulli trimming.

    Args:
        codec: any registered :class:`GradientCodec`.
        trim_rate: probability each data packet is cut to its heads
            (:meth:`~repro.packet.Packet.trim`, the switch's cut).
        drop_rate: probability each data packet is *lost outright* —
            its coordinates arrive as missing, the fault-injection
            analogue of an unrecovered corruption.  A message that loses
            every packet surrenders the round: the channel returns a
            zero gradient and counts ``stats.rounds_surrendered``.
        mtu: packet size of :func:`~repro.core.packetizer.packetize`.
        seed: trim-pattern seed (independent of the codec's seed).
        record: transcript to append trim decisions to (Section 5.4).
        replay: transcript to *read* trim decisions from instead of
            drawing random ones — reproduces a previous run exactly.
    """

    def __init__(
        self,
        codec: GradientCodec,
        trim_rate: float,
        drop_rate: float = 0.0,
        mtu: int = 1500,
        seed: int = 0,
        record: Optional[TrimTranscript] = None,
        replay: Optional[TrimTranscript] = None,
    ) -> None:
        super().__init__()
        if not 0.0 <= trim_rate <= 1.0:
            raise ValueError(f"trim_rate must be in [0, 1], got {trim_rate}")
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError(f"drop_rate must be in [0, 1], got {drop_rate}")
        if record is not None and replay is not None:
            raise ValueError("cannot record and replay the same run")
        self.codec = codec
        self.trim_rate = trim_rate
        self.drop_rate = drop_rate
        self.mtu = mtu
        self.seed = seed
        self.record = record
        self.replay = replay

    def _trim_mask(
        self, num_packets: int, epoch: int, message_id: int, worker: int
    ) -> np.ndarray:
        if self.replay is not None:
            indices = self.replay.lookup(epoch, message_id, worker)
            if indices and indices[-1] >= num_packets:
                raise ValueError(
                    f"transcript trims packet {indices[-1]} of message "
                    f"(epoch={epoch}, message={message_id}, worker={worker}), "
                    f"which has {num_packets} packets"
                )
            mask = np.zeros(num_packets, dtype=bool)
            mask[np.asarray(indices, dtype=int)] = True
            return mask
        gen = shared_generator(
            self.seed * 1_000_003 + worker, epoch, message_id, purpose="trim"
        )
        mask = gen.random(num_packets) < self.trim_rate
        if self.record is not None:
            self.record.record(epoch, message_id, worker, np.flatnonzero(mask).tolist())
        return mask

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
        meta, *data = packetize(enc, mtu=self.mtu)
        trim_mask = self._trim_mask(len(data), epoch, message_id, worker)
        drop_mask = np.zeros(len(data), dtype=bool)
        if self.drop_rate > 0.0:
            # An independent stream (purpose="fault") so adding drops
            # never perturbs an existing trim pattern or a replay.
            drop_gen = shared_generator(
                self.seed * 1_000_003 + worker, epoch, message_id, purpose="fault"
            )
            drop_mask = drop_gen.random(len(data)) < self.drop_rate
        wire = [meta] + [
            packet.trim() if trim else packet
            for packet, trim, lost in zip(data, trim_mask.tolist(), drop_mask.tolist())
            if not lost
        ]
        trimmed_count = self.stats.count_wire(flat.size, len(data), wire)

        if len(wire) == 1:
            # Nothing but the metadata survived: surrender the round with
            # a zero gradient instead of decoding garbage or hanging.
            self.count_surrender()
            if tracer.enabled:
                tracer.event(
                    "channel.degraded_step",
                    epoch=epoch,
                    message_id=message_id,
                    worker=worker,
                    reason="all packets dropped",
                )
            return np.zeros_like(flat)

        decoded = decode_packets(wire, self.codec)
        if tracer.enabled:
            tracer.event(
                "channel.transfer",
                epoch=epoch,
                message_id=message_id,
                worker=worker,
                trim_fraction=trimmed_count / len(data),
                nmse=float(nmse(flat, decoded)),
            )
        return decoded
