"""Tests for the NDP-style receiver-driven pull transport."""

import numpy as np
import pytest

from repro.core import RHTCodec, decode_packets, nmse, packetize
from repro.net import dumbbell
from repro.packet import SingleLevelTrim
from repro.transport import PullReceiver, PullSender, segment_bytes


def wire_pull(net, flow_id=1, initial_window=12, rto_min=1e-4):
    messages = []
    sender = PullSender(
        net.hosts["tx0"], flow_id=flow_id, initial_window=initial_window, rto_min=rto_min
    )
    receiver = PullReceiver(
        net.hosts["rx0"], flow_id=flow_id, on_message=messages.append
    )
    return sender, receiver, messages


class TestCleanPath:
    def test_delivers_and_orders(self):
        net = dumbbell(pairs=1)
        sender, receiver, messages = wire_pull(net)
        packets = segment_bytes("tx0", "rx0", 200_000, flow_id=1)
        sender.send_message(packets)
        net.sim.run(until=5.0)
        assert sender.done
        assert [p.seq for p in messages[0]] == list(range(len(packets)))

    def test_receiver_clocks_the_flow(self):
        """Beyond the initial window, every send is credit-driven."""
        net = dumbbell(pairs=1)
        sender, receiver, _ = wire_pull(net, initial_window=4)
        packets = segment_bytes("tx0", "rx0", 100_000, flow_id=1)
        sender.send_message(packets)
        net.sim.run(until=5.0)
        assert sender.done
        assert receiver.pulls_sent >= len(packets)
        assert sender.credits_received >= len(packets) - 4

    def test_initial_window_burst_only(self):
        net = dumbbell(pairs=1)
        sender, _, _ = wire_pull(net, initial_window=4)
        packets = segment_bytes("tx0", "rx0", 100_000, flow_id=1)
        sender.send_message(packets)
        # Before any credit returns, exactly the initial window is out.
        assert net.hosts["tx0"].packets_sent == 4

    def test_validation(self):
        net = dumbbell(pairs=1)
        with pytest.raises(ValueError, match="initial window"):
            PullSender(net.hosts["tx0"], flow_id=1, initial_window=0)


class TestImpairedPath:
    def test_trimmed_gradients_accepted_no_retransmit(self):
        net = dumbbell(pairs=1)
        net.set_impairment("s0", "s1", trim_prob=0.5)
        sender, receiver, messages = wire_pull(net)
        codec = RHTCodec(root_seed=2, row_size=2048)
        x = np.random.default_rng(0).standard_normal(50_000)
        sender.send_message(packetize(codec.encode(x), "tx0", "rx0", flow_id=1))
        net.sim.run(until=5.0)
        assert sender.done
        assert sender.tally.retransmissions == 0
        assert receiver.trimmed_accepted > 0
        assert nmse(x, decode_packets(messages[0], codec)) < 0.6

    def test_trimmed_packets_nacked_when_receiver_is_trim_oblivious(self):
        """Ablation: a receiver that cannot use trimmed payloads turns
        every trimmed header into a NACK; the retry loop converges
        because trimming is probabilistic per transmission."""
        net = dumbbell(pairs=1)
        net.set_impairment("s0", "s1", trim_prob=0.3)
        codec = RHTCodec(root_seed=2, row_size=2048)
        x = np.random.default_rng(1).standard_normal(50_000)
        messages = []
        sender = PullSender(net.hosts["tx0"], flow_id=1, initial_window=32)
        receiver = PullReceiver(
            net.hosts["rx0"], flow_id=1, on_message=messages.append,
            accept_trimmed=False,
        )
        sender.send_message(packetize(codec.encode(x), "tx0", "rx0", flow_id=1))
        net.sim.run(until=10.0)
        assert sender.done
        assert receiver.nacks_sent > 0
        assert sender.tally.retransmissions > 0
        # Everything eventually arrives at full precision.
        assert nmse(x, decode_packets(messages[0], codec)) < 1e-12

    def test_full_drops_recovered_by_backstop_timer(self):
        net = dumbbell(pairs=1)
        net.set_impairment("s0", "s1", drop_prob=0.08)
        sender, receiver, messages = wire_pull(net, rto_min=1e-4)
        codec = RHTCodec(root_seed=3, row_size=1024)
        x = np.random.default_rng(2).standard_normal(20_000)
        sender.send_message(packetize(codec.encode(x), "tx0", "rx0", flow_id=1))
        net.sim.run(until=20.0)
        assert sender.done
        assert sender.tally.retransmissions > 0
        assert nmse(x, decode_packets(messages[0], codec)) < 1e-12

    def test_pull_through_trimming_switch_completes_fast(self):
        """NDP end-to-end: shallow trimming switch + pull pacing."""
        net = dumbbell(
            pairs=1,
            edge_rate_bps=100e9,
            bottleneck_rate_bps=10e9,
            trim_policy=SingleLevelTrim(),
            buffer_bytes=20_000,
        )
        sender, receiver, messages = wire_pull(net, initial_window=64)
        codec = RHTCodec(root_seed=4, row_size=4096)
        x = np.random.default_rng(3).standard_normal(100_000)
        sender.send_message(packetize(codec.encode(x), "tx0", "rx0", flow_id=1))
        net.sim.run(until=10.0)
        assert sender.done
        assert sender.tally.retransmissions == 0
        assert net.total_switch_stats()["trimmed"] > 0
        assert nmse(x, decode_packets(messages[0], codec)) < 0.6
