"""Bernoulli packet-trim channel — the paper's congestion emulation.

The authors could not change NCCL's wire format, so their evaluation
"simulate[s] the effect of congestion using pre-set random probabilistic
dropping/trimming": each gradient packet is independently trimmed with a
fixed probability, and trimmed coordinates are replaced by their decoded
quantized value.  :class:`TrimChannel` reproduces that exactly on top of
the real codecs: encode → per-packet Bernoulli trim → decode, with
wall-clock encode/decode timing captured for the Figure 5 breakdown, and
an optional Section 5.4 transcript for record/replay.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..collectives.channel import GradientChannel
from ..core.codec import GradientCodec
from ..core.layout import coords_per_packet
from ..obs.trace import get_tracer
from ..packet.header import GRADIENT_HEADER_BYTES, WIRE_HEADER_BYTES
from ..transforms.prng import shared_generator
from .replay import TrimTranscript

__all__ = ["TrimChannel"]


class TrimChannel(GradientChannel):
    """Codec + per-packet Bernoulli trimming.

    Args:
        codec: any registered :class:`GradientCodec` (sign/sq/sd/rht).
        trim_rate: probability each data packet is trimmed to its heads.
        drop_rate: probability each data packet is *lost outright* —
            its coordinates arrive as missing, the fault-injection
            analogue of an unrecovered corruption.  A message that loses
            every packet surrenders the round: the channel returns a
            zero gradient and counts ``stats.rounds_surrendered``.
        mtu: packet size used to derive coordinates-per-packet.
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
        self.coords_per_pkt = coords_per_packet(mtu, codec.head_bits, codec.tail_bits)
        # Wire sizes for byte accounting (per full/trimmed data packet).
        full_bits = (codec.head_bits + codec.tail_bits) * self.coords_per_pkt
        head_bits = codec.head_bits * self.coords_per_pkt
        self._full_packet_bytes = WIRE_HEADER_BYTES + GRADIENT_HEADER_BYTES + (
            -(-full_bits // 8)
        )
        self._trimmed_packet_bytes = WIRE_HEADER_BYTES + GRADIENT_HEADER_BYTES + (
            -(-head_bits // 8)
        )
        self._codec_label = type(codec).__name__

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

        t0 = time.perf_counter()
        enc = self.codec.encode(flat, epoch=epoch, message_id=message_id)
        t1 = time.perf_counter()

        num_packets = -(-enc.length // self.coords_per_pkt)
        packet_mask = self._trim_mask(num_packets, epoch, message_id, worker)
        drop_mask = np.zeros(num_packets, dtype=bool)
        if self.drop_rate > 0.0:
            # An independent stream (purpose="fault") so adding drops
            # never perturbs an existing trim pattern or a replay.
            drop_gen = shared_generator(
                self.seed * 1_000_003 + worker, epoch, message_id, purpose="fault"
            )
            drop_mask = drop_gen.random(num_packets) < self.drop_rate
            packet_mask = packet_mask & ~drop_mask
        coord_mask = np.repeat(packet_mask, self.coords_per_pkt)[: enc.length]
        missing_mask = np.repeat(drop_mask, self.coords_per_pkt)[: enc.length]
        dropped_count = int(drop_mask.sum())

        if dropped_count == num_packets:
            # Nothing survived the wire: surrender the round with a zero
            # gradient instead of decoding garbage or hanging.
            self.stats.messages += 1
            self.stats.coordinates += flat.size
            self.stats.packets_total += num_packets
            self.count_dropped(dropped_count)
            self.stats.bytes_sent += num_packets * self._full_packet_bytes
            self.count_surrender()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "channel.degraded_step",
                    epoch=epoch,
                    message_id=message_id,
                    worker=worker,
                    reason="all packets dropped",
                )
            return np.zeros_like(flat)

        t2 = time.perf_counter()
        decoded = self.codec.decode(
            enc,
            trimmed=coord_mask,
            missing=missing_mask if dropped_count else None,
        )
        t3 = time.perf_counter()

        trimmed_count = int(packet_mask.sum())
        self.stats.messages += 1
        self.stats.coordinates += flat.size
        self.stats.packets_total += num_packets
        self.stats.packets_trimmed += trimmed_count
        self.count_dropped(dropped_count)
        # Dropped packets were transmitted at full size before they died.
        self.stats.bytes_sent += (
            (num_packets - trimmed_count - dropped_count) * self._full_packet_bytes
            + trimmed_count * self._trimmed_packet_bytes
            + dropped_count * self._full_packet_bytes
        )
        self.stats.bytes_saved_by_trim += trimmed_count * (
            self._full_packet_bytes - self._trimmed_packet_bytes
        )
        self.stats.encode_seconds += t1 - t0
        self.stats.decode_seconds += t3 - t2
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "encode",
                duration_s=t1 - t0,
                codec=self._codec_label,
                coords=int(flat.size),
                epoch=epoch,
                message_id=message_id,
                worker=worker,
            )
            from ..core.codec import nmse

            tracer.event(
                "decode",
                duration_s=t3 - t2,
                codec=self._codec_label,
                coords=int(flat.size),
                epoch=epoch,
                message_id=message_id,
                worker=worker,
                packets_trimmed=trimmed_count,
                packets_total=num_packets,
                nmse=float(nmse(flat, decoded)),
            )
        return decoded

