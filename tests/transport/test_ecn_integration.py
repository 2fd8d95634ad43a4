"""End-to-end ECN: marking switches + DCTCP senders keep queues short."""

from repro.net import QueueMonitor, dumbbell
from repro.transport import (
    AIMD,
    DCTCP,
    FixedWindow,
    GoBackNReceiver,
    GoBackNSender,
    segment_bytes,
)

ECN_THRESHOLD = 15_000
BUFFER = 120_000


def run_transfer(cc, num_bytes=400_000, until=10.0):
    net = dumbbell(
        pairs=1,
        edge_rate_bps=10e9,
        bottleneck_rate_bps=1e9,
        buffer_bytes=BUFFER,
        ecn_threshold_bytes=ECN_THRESHOLD,
    )
    monitor = QueueMonitor(net.sim, period_s=5e-6)
    monitor.watch("bottleneck", net.link_between("s0", "s1"))
    sender = GoBackNSender(net.hosts["tx0"], flow_id=1, cc=cc, rto_min=1e-3)
    GoBackNReceiver(net.hosts["rx0"], flow_id=1)
    sender.send_message(segment_bytes("tx0", "rx0", num_bytes, flow_id=1))
    net.sim.run(until=until)
    return sender, monitor, net


class TestEcnEndToEnd:
    def test_marks_are_applied_and_echoed(self):
        sender, monitor, net = run_transfer(DCTCP(initial_window=64))
        assert sender.done
        data_band = net.link_between("s0", "s1").queue.data_band()
        assert data_band.ecn_marked > 0
        # The sender's DCTCP alpha saw the echoes.
        assert sender.cc.alpha > 0.0

    def test_dctcp_keeps_queue_near_threshold(self):
        """DCTCP's proportional decrease holds the queue near the marking
        threshold; an oblivious fixed window fills the whole buffer.
        Uses a longer flow — DCTCP needs a few windows to converge."""
        _, monitor_dctcp, _ = run_transfer(
            DCTCP(initial_window=64), num_bytes=2_000_000
        )
        _, monitor_fixed, _ = run_transfer(
            FixedWindow(initial_window=96), num_bytes=2_000_000
        )
        dctcp_mean = monitor_dctcp.mean_bytes("bottleneck")
        fixed_mean = monitor_fixed.mean_bytes("bottleneck")
        assert dctcp_mean < fixed_mean * 0.6
        assert monitor_dctcp.peak_bytes("bottleneck") < BUFFER * 0.9

    def test_dctcp_avoids_drops_fixed_window_may_not(self):
        dctcp, _, net_dctcp = run_transfer(DCTCP(initial_window=64))
        fixed, _, net_fixed = run_transfer(FixedWindow(initial_window=256), until=3.0)
        assert net_dctcp.total_switch_stats()["dropped"] == 0
        assert dctcp.tally.retransmissions == 0
        # The oversized fixed window overruns the buffer.
        assert (
            net_fixed.total_switch_stats()["dropped"] > 0
            or fixed.tally.retransmissions > 0
        )

    def test_aimd_with_ecn_also_converges(self):
        sender, monitor, net = run_transfer(AIMD(initial_window=64))
        assert sender.done
        assert net.total_switch_stats()["dropped"] == 0
        assert monitor.peak_bytes("bottleneck") < BUFFER
