"""Tests for topology builders and routing."""

import pytest

import repro.cluster.driver as driver
from repro.cluster import available_cluster_scenarios, cluster_scenario_by_name
from repro.net import Network, dumbbell, fat_tree, leaf_spine
from repro.packet import Packet


class TestNetworkBasics:
    def test_duplicate_names_rejected(self):
        net = Network()
        net.add_host("a")
        with pytest.raises(ValueError, match="duplicate"):
            net.add_host("a")
        with pytest.raises(ValueError, match="duplicate"):
            net.add_switch("a")

    def test_device_lookup(self):
        net = Network()
        host = net.add_host("h")
        switch = net.add_switch("s")
        assert net.device("h") is host
        assert net.device("s") is switch
        with pytest.raises(KeyError):
            net.device("zzz")

    def test_link_between(self):
        net = dumbbell(pairs=1)
        link = net.link_between("s0", "s1")
        assert link.dst.name == "s1"
        uplink = net.link_between("tx0", "s0")
        assert uplink.dst.name == "s0"


class TestDumbbell:
    def test_end_to_end_delivery(self):
        net = dumbbell(pairs=2)
        got = []
        net.hosts["rx1"].set_default_handler(got.append)
        net.hosts["tx1"].send(Packet(src="tx1", dst="rx1", payload=b"ping"))
        net.sim.run()
        assert len(got) == 1
        assert got[0].payload == b"ping"

    def test_all_pairs_routed(self):
        net = dumbbell(pairs=3)
        counts = {}
        for i in range(3):
            net.hosts[f"rx{i}"].set_default_handler(
                lambda p, i=i: counts.__setitem__(i, counts.get(i, 0) + 1)
            )
        for i in range(3):
            net.hosts[f"tx{i}"].send(Packet(src=f"tx{i}", dst=f"rx{i}"))
        net.sim.run()
        assert counts == {0: 1, 1: 1, 2: 1}

    def test_bottleneck_is_shared(self):
        """Two senders at full edge rate overload a half-rate bottleneck."""
        net = dumbbell(pairs=2, edge_rate_bps=1e9, bottleneck_rate_bps=1e9)
        for i in range(2):
            for _ in range(50):
                net.hosts[f"tx{i}"].send(
                    Packet(src=f"tx{i}", dst=f"rx{i}", payload=b"\x00" * 1458)
                )
        net.sim.run()
        # 100 packets of 1500 B at 1 Gb/s bottleneck: at least 1.2 ms.
        assert net.sim.now > 1.1e-3

    def test_impairment_applies_both_directions(self):
        net = dumbbell(pairs=1)
        net.set_impairment("s0", "s1", drop_prob=0.25)
        assert net.link_between("s0", "s1").drop_prob == 0.25
        assert net.link_between("s1", "s0").drop_prob == 0.25


class TestLeafSpine:
    def test_shape(self):
        net = leaf_spine(leaves=2, spines=2, hosts_per_leaf=3)
        assert len(net.hosts) == 6
        assert len(net.switches) == 4

    def test_cross_leaf_delivery(self):
        net = leaf_spine(leaves=2, spines=2, hosts_per_leaf=2)
        got = []
        net.hosts["h1_0"].set_default_handler(got.append)
        net.hosts["h0_0"].send(Packet(src="h0_0", dst="h1_0", payload=b"x"))
        net.sim.run()
        assert len(got) == 1

    def test_same_leaf_stays_local(self):
        net = leaf_spine(leaves=2, spines=2, hosts_per_leaf=2)
        got = []
        net.hosts["h0_1"].set_default_handler(got.append)
        net.hosts["h0_0"].send(Packet(src="h0_0", dst="h0_1"))
        net.sim.run()
        for spine in ("spine0", "spine1"):
            assert net.switches[spine].stats.forwarded == 0
        assert len(got) == 1


class TestFatTree:
    def test_k4_shape(self):
        net = fat_tree(k=4)
        assert len(net.hosts) == 16
        assert len(net.switches) == 4 + 8 + 8  # cores + aggs + edges

    def test_cross_pod_delivery(self):
        net = fat_tree(k=4)
        got = []
        net.hosts["h3_1_1"].set_default_handler(got.append)
        net.hosts["h0_0_0"].send(Packet(src="h0_0_0", dst="h3_1_1"))
        net.sim.run()
        assert len(got) == 1

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fat_tree(k=3)


class TestStatsAggregation:
    def test_total_switch_stats(self):
        net = dumbbell(pairs=1)
        net.hosts["tx0"].send(Packet(src="tx0", dst="rx0"))
        net.sim.run()
        totals = net.total_switch_stats()
        assert totals["forwarded"] == 2  # s0 and s1 each forwarded once
        assert totals["dropped"] == 0


class TestHostBurst:
    """Burst batching is a host-uplink-only mechanism: it halves the
    events of a flooded NIC queue, and delivers a burst of data packets
    when the per-packet path would.  It is not timing-neutral: a host's
    queue is a two-band ``PriorityQueue`` too, and an express packet
    queued mid-burst waits for the whole burst.  Switch egress has no
    burst setting at all."""

    def test_switch_egress_is_always_per_packet(self):
        net = dumbbell(pairs=1, host_burst=8)
        assert net.link_between("s0", "s1").burst == 1
        assert net.link_between("s0", "tx0").burst == 1
        assert net.link_between("tx0", "s0").burst == 8

    def test_switch_burst_is_gone_not_ignored(self):
        with pytest.raises(TypeError):
            fat_tree(k=4, switch_burst=4)

    def _delivery_times(self, host_burst):
        # Power-of-two rate and delay: every serialization time is
        # wire_size / 2**33 s and every instant an exact multiple of
        # that, so float addition is exact in any association and the
        # per-packet and batched paths must agree to the last bit.  (At
        # 100 Gb/s the two paths associate ``now + tx + tx`` differently
        # and first-hop arrivals differ by 1 ulp.)
        net = dumbbell(
            pairs=2,
            host_burst=host_burst,
            edge_rate_bps=2.0**36,
            bottleneck_rate_bps=2.0**36,
            delay_s=2.0**-20,
        )
        deliveries = []
        for i in range(2):
            host = net.hosts[f"rx{i}"]
            host.set_default_handler(
                lambda p, sim=net.sim: deliveries.append((sim.now, p.src, p.seq))
            )
        # Each host floods its own uplink: the first send finds the
        # serializer idle (a burst of one), the other 39 drain as four
        # batches of 8 and one of 7.
        for i in range(2):
            for seq in range(40):
                net.hosts[f"tx{i}"].send(
                    Packet(
                        src=f"tx{i}",
                        dst=f"rx{i}",
                        payload=b"x" * (400 + (37 * seq) % 600),
                        seq=seq,
                    )
                )
        net.sim.run()
        deliveries.sort()
        return deliveries

    def test_burst_preserves_delivery_times(self):
        per_packet = self._delivery_times(1)
        batched = self._delivery_times(8)
        assert len(per_packet) == 80
        assert batched == per_packet

    @staticmethod
    def _arrivals_behind_a_burst(host_burst):
        """Arrival times at ``rx0`` of 16 data packets sent at once and of
        an ACK queued 20 us later, while the second packet serializes."""
        net = dumbbell(
            pairs=1, edge_rate_bps=1e9, bottleneck_rate_bps=1e9, host_burst=host_burst
        )
        arrivals = {}
        net.hosts["rx0"].set_default_handler(
            lambda p, sim=net.sim: arrivals.setdefault(p.seq, sim.now)
        )
        sender = net.hosts["tx0"]
        for seq in range(16):
            sender.send(Packet(src="tx0", dst="rx0", payload=b"x" * 1400, seq=seq))
        ack = Packet(src="tx0", dst="rx0", seq=99, priority=1, is_ack=True)
        net.sim.schedule(20e-6, lambda: sender.send(ack))
        net.sim.run()
        return arrivals

    def test_a_burst_holds_back_an_express_packet(self):
        """Per packet, the ACK leaves as soon as the packet on the wire is
        done and overtakes the data queued behind it; in a burst of eight it
        leaves after all eight (measured: 49.5 us against 130.2 us)."""
        per_packet = self._arrivals_behind_a_burst(1)
        batched = self._arrivals_behind_a_burst(8)
        assert per_packet[1] < per_packet[99] < per_packet[2]
        assert batched[8] < batched[99] < batched[9]
        assert batched[99] - per_packet[99] > 75e-6

    @pytest.mark.parametrize("name", available_cluster_scenarios())
    def test_every_cluster_host_has_one_role(self, name, monkeypatch):
        """The cluster presets' hosts burst, but ``HostAllocator`` hands
        each host out once: no host is both a job endpoint and a tenant
        endpoint, or serves two jobs, so a tenant's burst never holds back
        a job's ACK on a shared uplink."""
        claimed = []

        class Recording(driver.HostAllocator):
            def take(self, pod):
                claimed.append(super().take(pod))
                return claimed[-1]

            def take_outside(self, pod, count):
                hosts = super().take_outside(pod, count)
                claimed.extend(hosts)
                return hosts

        monkeypatch.setattr(driver, "HostAllocator", Recording)
        scenario = cluster_scenario_by_name(name)
        cluster = driver.ClusterDriver(scenario, seed=7)
        roles = sum(1 + len(runtime.placement.workers) for runtime in cluster.runtimes)
        roles += sum(
            len(tenant.src_hosts) + len(tenant.dst_hosts) for tenant in cluster.tenants
        )
        assert len(claimed) == roles
        assert len(set(claimed)) == len(claimed)
