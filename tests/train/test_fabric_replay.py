"""A fabric run's trims replay through ``TrimChannel`` to the same bytes.

One gradient message crosses a congested trimming dumbbell (the
``ddp-dumbbell`` ledger shape: 4 pairs at 10 Gb/s, 40 kB buffers,
``SingleLevelTrim``, a 3 x 400 kB incast into ``rx0``) through
``NetworkChannel``.  The data packets that arrived trimmed are written
into a ``TrimTranscript``, and ``TrimChannel(replay=)`` cuts exactly
those packets of the same message.  Both receivers decode the packets
that arrived with ``decode_packets``, so the decoded vectors and the
``ChannelStats`` must agree to the byte, for every registered codec —
the Section 5.4 record/replay on the fabric's own trim pattern.
"""

import numpy as np
import pytest

from repro.core import available_codecs, codec_by_name
from repro.net.crosstraffic import IncastBurst
from repro.net.topology import dumbbell
from repro.packet import SingleLevelTrim
from repro.train import NetworkChannel, TrimChannel, TrimTranscript
from repro.train.network_channel import _GradientTransfer

COORDS = 51_464  # MLP(192, [256], 8): the cluster job the fabric trims
EPOCH, MESSAGE = 1, 7


def congested_dumbbell():
    network = dumbbell(
        pairs=4, edge_rate_bps=10e9, bottleneck_rate_bps=10e9,
        trim_policy=SingleLevelTrim(), buffer_bytes=40_000,
    )
    burst = IncastBurst(
        network.sim,
        [network.hosts[f"tx{i}"] for i in (1, 2, 3)],
        "rx0",
        burst_bytes=400_000,
        seed=7,
    )
    burst.fire(0.0)
    return network


@pytest.mark.parametrize("name", available_codecs())
def test_a_fabric_transcript_replays_to_the_same_bytes(name, monkeypatch):
    flat = np.random.default_rng(3).standard_normal(COORDS)
    wires = []
    finish = _GradientTransfer.finish

    def keep_wire(transfer, stats):
        wires.append(transfer.wire)
        return finish(transfer, stats)

    monkeypatch.setattr(_GradientTransfer, "finish", keep_wire)
    fabric = NetworkChannel(
        congested_dumbbell, codec_by_name(name, root_seed=5), src="tx0", dst="rx0"
    )
    over_fabric = fabric.transfer(flat, epoch=EPOCH, message_id=MESSAGE)

    (wire,) = wires
    trimmed = [packet.seq - 1 for packet in wire if packet.is_trimmed]
    assert 0 < len(trimmed) < len(wire) - 1  # the fabric cut some, not all
    transcript = TrimTranscript()
    transcript.record(EPOCH, MESSAGE, 0, trimmed)
    replay = TrimChannel(
        codec_by_name(name, root_seed=5), trim_rate=0.0, replay=transcript
    )
    replayed = replay.transfer(flat, epoch=EPOCH, message_id=MESSAGE)

    assert replayed.tobytes() == over_fabric.tobytes()
    assert replay.stats == fabric.stats
