"""Integration tests: transports over the simulated dumbbell network."""

import ast
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core import RHTCodec, decode_packets, nmse, packetize
from repro.net import dumbbell
from repro.packet import Packet, SingleLevelTrim
from repro.transport import (
    AIMD,
    FixedWindow,
    GoBackNReceiver,
    GoBackNSender,
    PullReceiver,
    RttEstimator,
    TrimmingReceiver,
    TrimmingSender,
    segment_bytes,
)


def run_gbn(drop=0.0, num_bytes=500_000, rto_min=1e-3, until=5.0):
    net = dumbbell(pairs=1)
    net.set_impairment("s0", "s1", drop_prob=drop)
    sender = GoBackNSender(
        net.hosts["tx0"], flow_id=1, cc=AIMD(initial_window=32), rto_min=rto_min
    )
    messages = []
    GoBackNReceiver(net.hosts["rx0"], flow_id=1, on_message=messages.append)
    sender.send_message(segment_bytes("tx0", "rx0", num_bytes, flow_id=1))
    net.sim.run(until=until)
    return sender, messages


class TestSegmentBytes:
    def test_framing(self):
        packets = segment_bytes("a", "b", 5000, flow_id=3)
        assert [p.seq for p in packets] == list(range(len(packets)))
        assert all(p.seq_total == len(packets) for p in packets)
        assert sum(len(p.payload) for p in packets) == 5000

    def test_respects_mtu(self):
        for pkt in segment_bytes("a", "b", 100_000, flow_id=1, mtu=576):
            assert pkt.wire_size <= 576

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            segment_bytes("a", "b", 0, flow_id=1)


class TestRttEstimator:
    def test_first_sample_initializes(self):
        est = RttEstimator(rto_min=1e-6)
        est.sample(100e-6)
        assert est.srtt == pytest.approx(100e-6)
        assert est.rto >= 100e-6

    def test_rto_floor_and_cap(self):
        est = RttEstimator(rto_min=1e-3, rto_max=10e-3)
        est.sample(1e-6)
        assert est.rto == 1e-3
        for _ in range(20):
            est.backoff()
        assert est.rto == 10e-3

    def test_backoff_resets_on_sample(self):
        est = RttEstimator(rto_min=1e-3, rto_max=100e-3)
        est.sample(1e-3)
        est.backoff()
        est.backoff()
        widened = est.rto
        est.sample(1e-3)
        assert est.rto < widened


class TestGoBackN:
    def test_lossless_delivery(self):
        sender, messages = run_gbn(drop=0.0)
        assert sender.done
        assert len(messages) == 1
        assert sender.tally.retransmissions == 0
        assert sum(len(p.payload) for p in messages[0]) == 500_000

    def test_in_order_delivery(self):
        _, messages = run_gbn(drop=0.0)
        seqs = [p.seq for p in messages[0]]
        assert seqs == sorted(seqs)

    def test_loss_triggers_retransmission(self):
        sender, messages = run_gbn(drop=0.01)
        assert sender.done
        assert len(messages) == 1
        assert sender.tally.retransmissions > 0

    def test_fct_degrades_sharply_with_loss(self):
        """The Section 4.4 baseline behaviour: a few percent of drops
        multiply the completion time."""
        clean, _ = run_gbn(drop=0.0)
        lossy, _ = run_gbn(drop=0.02)
        assert lossy.fct_s > 5 * clean.fct_s

    def test_rejects_concurrent_messages(self):
        net = dumbbell(pairs=1)
        sender = GoBackNSender(net.hosts["tx0"], flow_id=1)
        sender.send_message(segment_bytes("tx0", "rx0", 10_000, flow_id=1))
        with pytest.raises(RuntimeError, match="already in flight"):
            sender.send_message(segment_bytes("tx0", "rx0", 10_000, flow_id=1))

    def test_rejects_empty_message(self):
        net = dumbbell(pairs=1)
        sender = GoBackNSender(net.hosts["tx0"], flow_id=1)
        with pytest.raises(ValueError):
            sender.send_message([])

    def test_trimmed_arrivals_treated_as_loss(self):
        net = dumbbell(pairs=1)
        net.set_impairment("s0", "s1", trim_prob=0.5)
        sender = GoBackNSender(
            net.hosts["tx0"], flow_id=1, cc=AIMD(initial_window=16), rto_min=1e-4
        )
        receiver = GoBackNReceiver(net.hosts["rx0"], flow_id=1)
        enc = RHTCodec(root_seed=0, row_size=1024).encode(
            np.random.default_rng(0).standard_normal(20000)
        )
        sender.send_message(packetize(enc, "tx0", "rx0", flow_id=1))
        net.sim.run(until=5.0)
        assert sender.done
        assert receiver.trimmed_rejected > 0
        assert sender.tally.retransmissions > 0


class TestTrimmingTransport:
    def test_lossless_delivery_decodes(self):
        net = dumbbell(pairs=1)
        x = np.random.default_rng(1).standard_normal(50_000)
        codec = RHTCodec(root_seed=4, row_size=4096)
        enc = codec.encode(x)
        sender = TrimmingSender(net.hosts["tx0"], flow_id=2, cc=FixedWindow(64))
        messages = []
        TrimmingReceiver(net.hosts["rx0"], flow_id=2, on_message=messages.append)
        sender.send_message(packetize(enc, "tx0", "rx0", flow_id=2))
        net.sim.run(until=5.0)
        assert sender.done
        decoded = decode_packets(messages[0], codec)
        assert nmse(x, decoded) < 1e-12

    def test_trims_complete_without_retransmission(self):
        """The paper's core transport property: trims are deliveries."""
        net = dumbbell(pairs=1)
        net.set_impairment("s0", "s1", trim_prob=0.5)
        x = np.random.default_rng(2).standard_normal(50_000)
        codec = RHTCodec(root_seed=4, row_size=4096)
        sender = TrimmingSender(net.hosts["tx0"], flow_id=2, cc=FixedWindow(64))
        messages = []
        TrimmingReceiver(net.hosts["rx0"], flow_id=2, on_message=messages.append)
        sender.send_message(packetize(codec.encode(x), "tx0", "rx0", flow_id=2))
        net.sim.run(until=5.0)
        assert sender.done
        assert sender.tally.retransmissions == 0
        assert sender.tally.trims_reported > 0
        decoded = decode_packets(messages[0], codec)
        assert nmse(x, decoded) < 0.6

    def test_fct_stays_flat_under_trimming(self):
        """Unlike go-back-N under drops, trimming keeps FCT near clean."""
        fcts = {}
        for trim in [0.0, 0.5]:
            net = dumbbell(pairs=1)
            net.set_impairment("s0", "s1", trim_prob=trim)
            x = np.random.default_rng(3).standard_normal(100_000)
            codec = RHTCodec(root_seed=1, row_size=4096)
            sender = TrimmingSender(net.hosts["tx0"], flow_id=2, cc=FixedWindow(64))
            TrimmingReceiver(net.hosts["rx0"], flow_id=2)
            sender.send_message(packetize(codec.encode(x), "tx0", "rx0", flow_id=2))
            net.sim.run(until=5.0)
            fcts[trim] = sender.fct_s
        assert fcts[0.5] < fcts[0.0] * 1.5

    def test_switch_trimming_end_to_end(self):
        """Overload a shallow trim-enabled switch buffer: the message still
        completes with zero drops and the decode succeeds."""
        net = dumbbell(
            pairs=1,
            edge_rate_bps=10e9,
            bottleneck_rate_bps=1e9,
            trim_policy=SingleLevelTrim(),
            buffer_bytes=20_000,
        )
        x = np.random.default_rng(5).standard_normal(100_000)
        codec = RHTCodec(root_seed=9, row_size=4096)
        sender = TrimmingSender(net.hosts["tx0"], flow_id=7, cc=FixedWindow(256))
        messages = []
        TrimmingReceiver(net.hosts["rx0"], flow_id=7, on_message=messages.append)
        sender.send_message(packetize(codec.encode(x), "tx0", "rx0", flow_id=7))
        net.sim.run(until=5.0)
        assert sender.done
        stats = net.total_switch_stats()
        assert stats["trimmed"] > 0
        decoded = decode_packets(messages[0], codec)
        assert nmse(x, decoded) < 0.6

    def test_full_drop_recovered_by_timer(self):
        net = dumbbell(pairs=1)
        net.set_impairment("s0", "s1", drop_prob=0.05)
        x = np.random.default_rng(6).standard_normal(20_000)
        codec = RHTCodec(root_seed=2, row_size=1024)
        sender = TrimmingSender(
            net.hosts["tx0"], flow_id=3, cc=FixedWindow(32), rto_min=1e-4
        )
        messages = []
        TrimmingReceiver(net.hosts["rx0"], flow_id=3, on_message=messages.append)
        sender.send_message(packetize(codec.encode(x), "tx0", "rx0", flow_id=3))
        net.sim.run(until=5.0)
        assert sender.done
        assert sender.tally.retransmissions > 0
        assert nmse(x, decode_packets(messages[0], codec)) < 1e-12


class TestOneReceiveRule:
    """The trimming receiver's per-packet rule is the only copy."""

    def test_pull_receiver_changes_only_how_an_answer_leaves(self):
        assert issubclass(PullReceiver, TrimmingReceiver)
        assert "_on_packet" not in vars(PullReceiver)

    def test_one_positional_control_packet_constructor(self):
        # Data packets are built by keyword (segment_bytes); every ACK and
        # NACK a receiver sends is built by position in one function.
        import repro.transport

        sites = []
        for path in sorted(Path(repro.transport.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "Packet"
                    and node.args
                ):
                    sites.append(path.name)
        assert sites == ["base.py"]


class TestLateTrimmedCopy:
    """A retransmitted full packet can overtake a trimmed copy of itself
    that was held at a switch; whichever lands last, the receiver keeps
    the full one."""

    @pytest.mark.parametrize("receiver_class", [TrimmingReceiver, PullReceiver])
    def test_never_replaces_the_full_packet(self, receiver_class):
        net = dumbbell(pairs=1)
        codec = RHTCodec(root_seed=4, row_size=1024)
        x = np.random.default_rng(8).standard_normal(4096)
        packets = packetize(codec.encode(x), "tx0", "rx0", flow_id=9)
        receiver = receiver_class(net.hosts["rx0"], flow_id=9)
        for packet in packets:
            net.hosts["rx0"].receive(packet)
        full = next(p for p in packets if p.cut() is not None)
        net.hosts["rx0"].receive(full.trim())
        assert receiver.packets()[full.seq] is full
        assert receiver.trimmed_accepted == 0


class TestTrimmingInflightCount:
    """``_inflight`` keeps a running count; the rescan it replaced is the oracle."""

    @staticmethod
    def rescan(sender):
        return sender._next - len([s for s in sender._acked if s < sender._next])

    @staticmethod
    def control(seq, **flags):
        return Packet(src="rx0", dst="tx0", is_ack=True, seq=seq, flow_id=5, **flags)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_rescan_under_random_interleavings(self, seed):
        rng = random.Random(seed)
        net = dumbbell(pairs=1)
        sender = TrimmingSender(net.hosts["tx0"], flow_id=5, cc=AIMD(initial_window=4))

        def check():
            assert sender._inflight() == self.rescan(sender)
            assert sender._acked_below_next == sender._next - sender._inflight()

        for message in range(3):
            # send_message -> _reset_state; from the second message on,
            # ACKs of the previous one arrive "late", ahead of _next.
            sender.send_message(segment_bytes("tx0", "rx0", 80_000, flow_id=5))
            check()
            steps = 0
            while not sender.done:
                steps += 1
                assert steps < 5000
                roll = rng.random()
                if roll < 0.55 and sender._next:
                    seq = rng.randrange(sender._next)  # fresh or duplicate ACK
                    sender._dispatch(self.control(seq, trimmed_echo=rng.random() < 0.3))
                elif roll < 0.70:
                    # Stale / out-of-range: not yet sent, past the end, negative.
                    seq = rng.choice(
                        [rng.randrange(len(sender._packets)), len(sender._packets) + 3, -2]
                    )
                    sender._dispatch(self.control(seq))
                elif roll < 0.80 and sender._next:
                    sender._dispatch(self.control(rng.randrange(sender._next), nack=True))
                elif roll < 0.90:
                    sender._timer_fired()
                else:
                    sender._pump()
                check()
        assert sender.done

    def test_ddp_sized_transfer_is_unchanged(self):
        """FCT and trim count of a congested DDP-sized transfer, pinned."""
        net = dumbbell(
            pairs=1, bottleneck_rate_bps=5e9, buffer_bytes=20_000,
            trim_policy=SingleLevelTrim(),
        )
        x = np.random.default_rng(0).standard_normal(111_332)
        codec = RHTCodec(root_seed=1, row_size=4096)
        sender = TrimmingSender(net.hosts["tx0"], flow_id=5, cc=FixedWindow(64))
        messages = []
        TrimmingReceiver(net.hosts["rx0"], flow_id=5, on_message=messages.append)
        packets = packetize(codec.encode(x), "tx0", "rx0", flow_id=5)
        sender.send_message(packets)
        net.sim.run(until=5.0)
        assert sender.done and len(packets) == 324
        # Values of the commit that still rescanned the ack set per ACK.
        assert sender.fct_s == pytest.approx(9.918511999999965e-05, rel=1e-12)
        assert (sender.tally.trims_reported, sender.tally.retransmissions) == (308, 0)
        assert net.sim.events_processed == 3888
