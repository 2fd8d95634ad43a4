"""End-to-end ECN: marking switches + ECN-reacting senders keep queues short."""

from repro.net import QueueMonitor, dumbbell
from repro.transport import (
    AIMD,
    GoBackNReceiver,
    GoBackNSender,
    segment_bytes,
)

ECN_THRESHOLD = 15_000
BUFFER = 120_000


class EchoCountingAIMD(AIMD):
    """AIMD that counts the CE marks its ACKs echo."""

    def __init__(self, initial_window):
        super().__init__(initial_window)
        self.echoes = 0

    def on_ack(self, ecn=False):
        self.echoes += ecn
        super().on_ack(ecn)


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
        sender, monitor, net = run_transfer(EchoCountingAIMD(initial_window=64))
        assert sender.done
        data_band = net.link_between("s0", "s1").queue.data_band()
        assert data_band.ecn_marked > 0
        # The sender's congestion control saw the echoes.
        assert sender.cc.echoes > 0

    def test_aimd_with_ecn_also_converges(self):
        sender, monitor, net = run_transfer(AIMD(initial_window=64))
        assert sender.done
        assert net.total_switch_stats()["dropped"] == 0
        assert monitor.peak_bytes("bottleneck") < BUFFER
