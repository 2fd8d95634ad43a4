"""QueueMonitor analysis API: percentiles, summaries, deadlines, rescheduling."""

import pytest

from repro.net import QueueMonitor, dumbbell
from repro.packet import Packet


def congested_monitor(period_s=1e-6, stop_at=None):
    net = dumbbell(pairs=1, edge_rate_bps=10e9, bottleneck_rate_bps=1e9)
    monitor = QueueMonitor(net.sim, period_s=period_s, stop_at=stop_at)
    monitor.watch("b", net.link_between("s0", "s1"))
    for _ in range(30):
        net.hosts["tx0"].send(Packet(src="tx0", dst="rx0", payload=b"\x00" * 1458))
    return net, monitor


class TestPercentiles:
    def test_percentiles_are_monotone(self):
        net, monitor = congested_monitor()
        net.sim.run()
        p50 = monitor.percentile("b", 50)
        p90 = monitor.percentile("b", 90)
        p99 = monitor.percentile("b", 99)
        assert 0 <= p50 <= p90 <= p99 <= monitor.peak_bytes("b")
        assert p99 > 0  # the bottleneck really did queue

    def test_percentile_bounds_checked(self):
        net, monitor = congested_monitor()
        net.sim.run()
        with pytest.raises(ValueError, match="percentile"):
            monitor.percentile("b", -1)
        with pytest.raises(ValueError, match="percentile"):
            monitor.percentile("b", 101)

    def test_percentile_of_empty_series_is_zero(self):
        net = dumbbell(pairs=1)
        monitor = QueueMonitor(net.sim)
        monitor.watch("b", net.link_between("s0", "s1"))
        assert monitor.percentile("b", 99) == 0.0

    def test_summary_bundle(self):
        net, monitor = congested_monitor()
        net.sim.run()
        summary = monitor.summary("b")
        assert set(summary) == {"samples", "mean", "p50", "p90", "p99", "peak"}
        assert summary["samples"] == len(monitor.samples["b"])
        assert summary["peak"] == monitor.peak_bytes("b")
        assert summary["mean"] == pytest.approx(monitor.mean_bytes("b"))
        assert summary["p50"] <= summary["p90"] <= summary["p99"] <= summary["peak"]


class TestScheduling:
    def test_stop_at_deadline_halts_sampling(self):
        deadline = 20e-6
        net, monitor = congested_monitor(period_s=1e-6, stop_at=deadline)
        net.sim.run()
        times = [s.time for s in monitor.samples["b"]]
        assert times  # it did sample
        # One final tick may land exactly at/after the deadline check,
        # but nothing is scheduled past it.
        assert max(times) <= deadline + monitor.period_s

    def test_monitor_never_prolongs_the_run(self):
        """The reschedule rule: with no other pending work, the monitor
        must let the simulation end rather than tick forever."""
        net = dumbbell(pairs=1)
        monitor = QueueMonitor(net.sim, period_s=1e-6)
        monitor.watch("b", net.link_between("s0", "s1"))
        net.hosts["tx0"].send(Packet(src="tx0", dst="rx0"))
        end = net.sim.run()
        assert end < 1e-3
        assert net.sim.pending() == 0

    def test_monitor_alone_ticks_once_then_stops(self):
        net = dumbbell(pairs=1)
        monitor = QueueMonitor(net.sim, period_s=1e-6)
        monitor.watch("b", net.link_between("s0", "s1"))
        # No traffic at all: the first tick sees pending() == 0 and
        # does not reschedule.
        net.sim.run()
        assert len(monitor.samples["b"]) == 1
        assert net.sim.pending() == 0

    def test_sampling_resumes_via_new_watch(self):
        net = dumbbell(pairs=1)
        monitor = QueueMonitor(net.sim, period_s=1e-6)
        monitor.watch("a", net.link_between("s0", "s1"))
        net.sim.run()
        before = len(monitor.samples["a"])
        # Watching a new queue restarts the tick loop.
        monitor.watch("b", net.link_between("s1", "s0"))
        net.sim.run()
        assert len(monitor.samples["a"]) > before


class TestLiveGauges:
    """Network-wide watching.  A watched queue's live state is its
    link's queue and its history the monitor's samples; the registry
    keeps no gauge of either."""

    def test_watch_network_covers_every_switch_port(self):
        net = dumbbell(pairs=2)
        monitor = QueueMonitor(net.sim)
        labels = monitor.watch_network(net)
        expected = {
            f"{name}->{neighbor}"
            for name, switch in net.switches.items()
            for neighbor in switch.ports
        }
        assert set(labels) == expected
        assert labels == sorted(labels)  # deterministic ordering
        # Idempotent: a second call finds nothing new to watch.
        assert monitor.watch_network(net) == []
