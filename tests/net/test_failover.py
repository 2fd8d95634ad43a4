"""ECMP failover: selective eviction, blackhole window, rehoming.

The self-healing contract from the fabric's point of view:

* ``set_port_down`` evicts **only** flows pinned to the dead leg (after
  the reroute-convergence delay); survivors keep their exact flow-table
  entry so intra-flow ordering is untouched.
* During the stale-FIB window packets on the dead leg drop as
  "blackhole"; afterwards flows rehome onto surviving legs and count a
  reroute.
* Routes with no live alternative keep the legacy "port-blackout" kind.
* ``Network.flow_path`` predictions agree with the post-failover cache.
* ``set_failed`` kills the whole device: everything it receives drops
  as "switch-down" and its egress serializers go dark.
"""

from repro.net.topology import leaf_spine
from repro.obs.metrics import get_registry
from repro.obs.int_telemetry import (
    AUX_PATH_CHANGED,
    DECISION_FORWARD,
    INTExtension,
    hop_id,
)
from repro.packet.packet import Packet

SPINES = ["spine0", "spine1", "spine2", "spine3"]


def _build(spines: int = 4):
    return leaf_spine(
        leaves=2, spines=spines, hosts_per_leaf=1, ecmp=True, ecmp_seed=7
    )


def _send(net, flow_id: int, seq: int = 0, int_ext=None) -> Packet:
    packet = Packet(
        src="h0_0",
        dst="h1_0",
        payload=b"\x00" * 200,
        flow_id=flow_id,
        seq=seq,
        int_ext=int_ext,
    )
    net.hosts["h0_0"].send(packet)
    return packet


def _warm(net, flows: int = 40) -> None:
    """One packet per flow id pins each flow into leaf0's flow table."""
    for flow_id in range(flows):
        _send(net, flow_id)
    net.sim.run()


def _flow_via(net, spine: str, avoid=None) -> int:
    """A flow id that leaf0 hashes onto ``spine``."""
    leaf0 = net.switches["leaf0"]
    for flow_id in range(10_000, 11_000):
        resolved = leaf0.route_lookup("h0_0", "h1_0", flow_id)
        assert resolved is not None
        if resolved[0] == spine:
            return flow_id
    raise AssertionError(f"no flow hashes onto {spine}")


class TestSelectiveEviction:
    def test_survivors_keep_their_exact_cache_entry(self):
        net = _build()
        _warm(net)
        leaf0 = net.switches["leaf0"]
        before = dict(leaf0._ecmp_cache)
        survivors = {k: v for k, v in before.items() if v[0] != "spine0"}
        victims = {k for k, v in before.items() if v[0] == "spine0"}
        assert victims and survivors  # seed 7 spreads 40 flows over 4 legs

        leaf0.set_port_down("spine0")
        net.sim.run()  # lets the convergence callback fire

        for key, entry in survivors.items():
            assert leaf0._ecmp_cache[key] is entry  # identity: untouched
        for key in victims:
            assert key not in leaf0._ecmp_cache

    def test_load_accounting_decrements_exactly_the_victims(self):
        net = _build()
        _warm(net)
        leaf0 = net.switches["leaf0"]
        expected = dict(leaf0._ecmp_load)
        expected.pop("spine0")

        leaf0.set_port_down("spine0")
        net.sim.run()

        assert leaf0._ecmp_load == expected

    def test_unrelated_port_event_does_not_move_cross_traffic(self):
        """A host-facing port event must not rehash spine-bound flows."""
        net = _build()
        _warm(net)
        leaf1 = net.switches["leaf1"]
        before = dict(leaf1._ecmp_cache)
        # leaf1's flows toward h1_0 ride the single host port; downing a
        # spine-facing port it does not use for them must evict nothing.
        leaf1.set_port_down("spine3")
        net.sim.run()
        for key, entry in before.items():
            if entry[0] != "spine3":
                assert leaf1._ecmp_cache[key] is entry

    def test_ports_down_gauge_tracks_live_state(self):
        # The live count is the switch's own set; no registry copy of it.
        net = _build()
        leaf0 = net.switches["leaf0"]
        assert len(leaf0.ports_down) == 0
        leaf0.set_port_down("spine0")
        assert len(leaf0.ports_down) == 1
        leaf0.set_port_down("spine1")
        assert len(leaf0.ports_down) == 2
        leaf0.set_port_down("spine0", down=False)
        assert len(leaf0.ports_down) == 1


class TestFailoverReroute:
    def test_blackhole_window_then_reroute(self):
        net = _build()
        leaf0 = net.switches["leaf0"]
        # The registry is process-cumulative per switch name: compare growth.
        dropped = get_registry().get("repro_switch_dropped_total")
        reroutes = get_registry().get("repro_switch_reroutes_total")
        dropped_before = dropped.value(switch="leaf0", kind="blackhole")
        reroutes_before = reroutes.value(switch="leaf0")
        flow = _flow_via(net, "spine0")
        delivered = []
        net.hosts["h1_0"].set_default_handler(delivered.append)

        _send(net, flow, seq=0)
        net.sim.run()
        assert leaf0._ecmp_cache[("h0_0", "h1_0", flow)][0] == "spine0"

        # Widen the stale window so the in-flight packet lands inside it.
        leaf0.reroute_delay_s = 500e-6
        leaf0.set_port_down("spine0")
        _send(net, flow, seq=1)  # arrives before convergence: blackholed
        net.sim.run()

        assert leaf0.stats.blackhole >= 1
        assert leaf0.stats.drops_by_kind.get("blackhole", 0) >= 1
        assert (
            dropped.value(switch="leaf0", kind="blackhole") - dropped_before
            == leaf0.stats.blackhole
        )
        assert leaf0.stats.drops_by_kind.get("port-blackout", 0) == 0

        _send(net, flow, seq=2)  # post-convergence: rehomes
        net.sim.run()

        assert leaf0.stats.reroutes == 1
        assert reroutes.value(switch="leaf0") - reroutes_before == 1.0
        new_leg = leaf0._ecmp_cache[("h0_0", "h1_0", flow)][0]
        assert new_leg in SPINES and new_leg != "spine0"
        assert [(p.flow_id, p.seq) for p in delivered] == [(flow, 0), (flow, 2)]

    def test_flow_path_prediction_matches_rerouted_cache(self):
        net = _build()
        leaf0 = net.switches["leaf0"]
        flow = _flow_via(net, "spine1")
        _send(net, flow)
        net.sim.run()
        leaf0.set_port_down("spine1")
        net.sim.run()
        _send(net, flow, seq=1)
        net.sim.run()
        new_leg = leaf0._ecmp_cache[("h0_0", "h1_0", flow)][0]
        assert net.flow_path("h0_0", "h1_0", flow) == [
            "h0_0", "leaf0", new_leg, "leaf1", "h1_0",
        ]

    def test_int_forward_record_carries_path_changed_flag(self):
        net = _build()
        leaf0 = net.switches["leaf0"]
        flow = _flow_via(net, "spine2")
        _send(net, flow)
        net.sim.run()
        leaf0.set_port_down("spine2")
        net.sim.run()

        packet = _send(net, flow, seq=1, int_ext=INTExtension())
        net.sim.run()

        records = [r for r in packet.int_ext.records if r.hop == hop_id("leaf0")]
        assert len(records) == 1
        record = records[0]
        assert record.decision == DECISION_FORWARD
        assert record.aux & AUX_PATH_CHANGED
        leg = SPINES[(record.aux & ~AUX_PATH_CHANGED) - 1]
        assert leg == leaf0._ecmp_cache[("h0_0", "h1_0", flow)][0]

        # The flag is one-shot: the next packet stamps a plain aux.
        follow_up = _send(net, flow, seq=2, int_ext=INTExtension())
        net.sim.run()
        plain = [r for r in follow_up.int_ext.records if r.hop == hop_id("leaf0")]
        assert plain and not plain[0].aux & AUX_PATH_CHANGED

    def test_no_live_alternative_keeps_legacy_blackout_kind(self):
        net = _build(spines=1)  # single path: leaf0 -> spine0 -> leaf1
        leaf0 = net.switches["leaf0"]
        _send(net, 5)
        net.sim.run()
        leaf0.set_port_down("spine0")
        _send(net, 5, seq=1)  # inside the stale window: blackhole
        net.sim.run()
        _send(net, 5, seq=2)  # converged, nowhere to go: port-blackout
        net.sim.run()
        assert leaf0.stats.drops_by_kind.get("blackhole", 0) == 1
        assert leaf0.stats.drops_by_kind.get("port-blackout", 0) == 1
        assert leaf0.stats.reroutes == 0

    def test_restore_does_not_flap_rerouted_flows_back(self):
        net = _build()
        leaf0 = net.switches["leaf0"]
        flow = _flow_via(net, "spine0")
        _send(net, flow)
        net.sim.run()
        leaf0.set_port_down("spine0")
        net.sim.run()
        _send(net, flow, seq=1)
        net.sim.run()
        new_entry = leaf0._ecmp_cache[("h0_0", "h1_0", flow)]
        leaf0.set_port_down("spine0", down=False)
        _send(net, flow, seq=2)
        net.sim.run()
        assert leaf0._ecmp_cache[("h0_0", "h1_0", flow)] is new_entry

    def test_restored_leg_takes_fresh_flows_again(self):
        net = _build()
        leaf0 = net.switches["leaf0"]
        flow = _flow_via(net, "spine0")
        leaf0.set_port_down("spine0")
        net.sim.run()  # converged: fresh flows hash over the live legs only
        assert leaf0.route_lookup("h0_0", "h1_0", flow)[0] != "spine0"
        leaf0.set_port_down("spine0", down=False)
        assert leaf0.route_lookup("h0_0", "h1_0", flow)[0] == "spine0"


class TestSwitchDown:
    def test_failed_switch_drops_everything_as_switch_down(self):
        net = _build()
        spine = net.switches["spine0"]
        flow = _flow_via(net, "spine0")
        spine.set_failed(True)
        _send(net, flow)
        net.sim.run()
        assert spine.stats.drops_by_kind.get("switch-down", 0) == 1
        assert all(not link.up for link in spine.ports.values())

    def test_revive_restores_forwarding(self):
        net = _build()
        spine = net.switches["spine0"]
        flow = _flow_via(net, "spine0")
        spine.set_failed(True)
        _send(net, flow)
        net.sim.run()
        spine.set_failed(False)
        delivered = []
        net.hosts["h1_0"].set_default_handler(delivered.append)
        _send(net, flow, seq=1)
        net.sim.run()
        assert [(p.flow_id, p.seq) for p in delivered] == [(flow, 1)]
