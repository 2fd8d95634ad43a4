"""Tests for background traffic generators."""

import pytest

from repro.net import IncastBurst, OnOffFlow, dumbbell


class TestOnOffFlow:
    def test_emits_roughly_target_load(self):
        net = dumbbell(pairs=1, edge_rate_bps=10e9, bottleneck_rate_bps=10e9)
        got = []
        net.hosts["rx0"].set_default_handler(got.append)
        flow = OnOffFlow(
            net.sim, net.hosts["tx0"], "rx0",
            rate_bps=1e9, burst_s=50e-6, idle_s=50e-6, seed=1, stop_at=10e-3,
        )
        flow.start()
        net.sim.run(until=11e-3)
        # 50% duty cycle at 1 Gb/s over 10 ms ~ 625 kB ~ 416 packets.
        assert 200 < len(got) < 650

    def test_stop_halts_emission(self):
        net = dumbbell(pairs=1)
        flow = OnOffFlow(net.sim, net.hosts["tx0"], "rx0", rate_bps=1e9, seed=0)
        flow.start()
        net.sim.run(until=100e-6)
        flow.stop()
        emitted = flow.packets_emitted
        net.sim.run(until=10e-3)
        assert flow.packets_emitted <= emitted + 1

    def test_deterministic_given_seed(self):
        counts = []
        for _ in range(2):
            net = dumbbell(pairs=1)
            flow = OnOffFlow(
                net.sim, net.hosts["tx0"], "rx0", rate_bps=2e9, seed=7, stop_at=2e-3
            )
            flow.start()
            net.sim.run(until=3e-3)
            counts.append(flow.packets_emitted)
        assert counts[0] == counts[1]


class TestIncastBurst:
    def test_all_senders_fire(self):
        net = dumbbell(pairs=3)
        got = []
        net.hosts["rx0"].set_default_handler(got.append)
        burst = IncastBurst(
            net.sim,
            senders=[net.hosts[f"tx{i}"] for i in range(3)],
            dst="rx0",
            burst_bytes=20_000,
        )
        burst.fire(at=0.0)
        net.sim.run()
        assert burst.packets_emitted == 3 * 15  # ceil(20000/1416) per sender
        assert len(got) == burst.packets_emitted  # 100G bottleneck: no loss

    def test_incast_overflows_shallow_buffer(self):
        net = dumbbell(
            pairs=4, edge_rate_bps=10e9, bottleneck_rate_bps=10e9, buffer_bytes=30_000
        )
        burst = IncastBurst(
            net.sim,
            senders=[net.hosts[f"tx{i}"] for i in range(4)],
            dst="rx0",
            burst_bytes=200_000,
        )
        burst.fire()
        net.sim.run()
        assert net.switches["s1"].stats.dropped > 0 or net.switches["s0"].stats.dropped > 0

