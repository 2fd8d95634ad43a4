"""Tests for background traffic generators."""

import pytest

from repro.net import IncastBurst, OnOffFlow, Simulator, dumbbell


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


    @staticmethod
    def reference_payloads(burst_bytes, packet_bytes):
        """Payload sizes of the per-packet loop ``_blast`` replaced."""
        sizes, remaining = [], burst_bytes
        while remaining > 0:
            size = min(packet_bytes, remaining + 42)
            sizes.append(max(0, size - 42))
            remaining -= size - 42
        return sizes

    @pytest.mark.parametrize("packet_bytes", [43, 100, 1458])
    @pytest.mark.parametrize("burst_bytes", [-5, 0, 1, 57, 58, 1416, 1417, 2832, 20_000])
    def test_blast_sends_what_the_per_packet_loop_sent(self, burst_bytes, packet_bytes):
        class Host:
            def __init__(self, name):
                self.name, self.sent = name, []

            def send(self, packet):
                self.sent.append(packet)

        senders = [Host("tx0"), Host("tx1")]
        burst = IncastBurst(
            Simulator(), senders, "rx0", burst_bytes=burst_bytes, packet_bytes=packet_bytes
        )
        burst.fire()
        burst.sim.run()
        want = self.reference_payloads(burst_bytes, packet_bytes)
        for rank, host in enumerate(senders):
            assert [len(p.payload) for p in host.sent] == want
            assert all(p.flow_id == burst.flow_id_base + rank for p in host.sent)
        assert burst.packets_emitted == 2 * len(want)

    @pytest.mark.parametrize("packet_bytes", [0, 30, 42])
    def test_a_packet_must_carry_a_payload(self, packet_bytes):
        with pytest.raises(ValueError, match="exceed the 42-byte wire header"):
            IncastBurst(Simulator(), [], "rx0", packet_bytes=packet_bytes)
        net = dumbbell(pairs=1)
        with pytest.raises(ValueError, match="exceed the 42-byte wire header"):
            OnOffFlow(net.sim, net.hosts["tx0"], "rx0", rate_bps=1e9, packet_bytes=packet_bytes)
