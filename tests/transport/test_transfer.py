"""The transfer: one message, a caller-built sender, the receiver it names."""

import math

import numpy as np
import pytest

from repro.core import RHTCodec, packetize
from repro.net import dumbbell
from repro.packet import SingleLevelTrim
from repro.transport import (
    FixedWindow,
    GoBackNReceiver,
    GoBackNSender,
    PullReceiver,
    PullSender,
    Transfer,
    TrimmingReceiver,
    TrimmingSender,
    segment_bytes,
)

PAIRS = [
    (GoBackNSender, GoBackNReceiver),
    (PullSender, PullReceiver),
    (TrimmingSender, TrimmingReceiver),
]


def trimming_dumbbell():
    return dumbbell(
        pairs=1,
        edge_rate_bps=100e9,
        bottleneck_rate_bps=10e9,
        trim_policy=SingleLevelTrim(),
        buffer_bytes=20_000,
    )


def gradient_packets(flow_id=1, coords=100_000):
    codec = RHTCodec(root_seed=4, row_size=4096)
    x = np.random.default_rng(3).standard_normal(coords)
    return packetize(codec.encode(x), "tx0", "rx0", flow_id=flow_id)


@pytest.mark.parametrize("sender_cls,receiver_cls", PAIRS, ids=lambda c: c.__name__)
def test_builds_the_receiver_its_sender_names(sender_cls, receiver_cls):
    net = dumbbell(pairs=1)
    sender = sender_cls(net.hosts["tx0"], flow_id=3)
    transfer = Transfer(net, sender, segment_bytes("tx0", "rx0", 20_000, flow_id=3))
    assert type(net.hosts["rx0"]._handlers[3].__self__) is receiver_cls
    transfer.start()
    net.sim.run(until=1.0)
    assert sender.done and transfer.delivery_calls == 1
    assert [p.seq for p in transfer.wire] == list(range(len(transfer.packets)))
    transfer.close()
    assert 3 not in net.hosts["tx0"]._handlers
    assert 3 not in net.hosts["rx0"]._handlers


@pytest.mark.parametrize(
    "sender_cls,burst",
    [(PullSender, {"initial_window": 64}), (TrimmingSender, {"cc": FixedWindow(64)})],
    ids=["PullSender", "TrimmingSender"],
)
def test_sender_counts_the_trims_it_delivered(sender_cls, burst):
    """``tally.trims_reported`` is the number of trimmed packets delivered."""
    net = trimming_dumbbell()
    sender = sender_cls(net.hosts["tx0"], flow_id=1, **burst)
    transfer = Transfer(net, sender, gradient_packets())
    transfer.start()
    net.sim.run(until=10.0)
    assert sender.done and sender.tally.retransmissions == 0
    trimmed = sum(1 for p in transfer.wire if p.is_trimmed)
    assert trimmed > 0
    assert sender.tally.trims_reported == trimmed


def test_two_completion_times():
    """The receiver holds the message one ACK trip before the sender knows."""
    net = trimming_dumbbell()
    sender = TrimmingSender(net.hosts["tx0"], flow_id=1, cc=FixedWindow(64))
    transfer = Transfer(net, sender, gradient_packets())
    assert sender.fct_s == math.inf
    transfer.start()
    net.sim.run(until=10.0)
    assert 0 < transfer.fct_s < sender.fct_s < math.inf
    # A second message on the same sender starts its own clock.
    sender.send_message(segment_bytes("tx0", "rx0", 3_000, flow_id=1))
    assert sender.fct_s == math.inf


def test_surrendered_message_has_no_completion_time():
    net = dumbbell(pairs=1)
    net.set_impairment("s0", "s1", drop_prob=1.0)
    sender = TrimmingSender(net.hosts["tx0"], flow_id=1, max_retries=2)
    transfer = Transfer(net, sender, segment_bytes("tx0", "rx0", 5_000, flow_id=1))
    settled = []
    transfer.start(lambda *error: settled.append(error))
    net.sim.run(until=10.0)
    assert sender.failed and len(settled) == 1 and settled[0]
    assert sender.fct_s == math.inf
    assert transfer.wire is None and transfer.delivery_calls == 0
