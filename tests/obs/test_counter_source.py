"""One writer per counter: the registry reads the plain counters.

Instrumented objects count in plain attributes (``SwitchStats``,
``Link.packets_sent``, a sender's tallies, ``ChannelStats`` ...) and the
registry adds what they gained when it is flushed.  So for every family
with a plain twin, the registry value is the sum of the plain counters
of every object that ever carried that label — whether those objects
are alive, dropped, or already collected when the registry is read.
"""

import ast
import gc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.collectives import AllReduceHook
from repro.core import codec_by_name, packetize
from repro.faults import run_scenario, scenario_by_name
from repro.net import Simulator, Switch, dumbbell
from repro.nn import LogisticRegression, make_dataset
from repro.obs.int_telemetry import (
    INTCollector,
    decision_name,
    disable_int,
    enable_int,
    get_int_collector,
    set_int_collector,
)
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.packet import Packet, SingleLevelTrim
from repro.resilience import Membership, RoundDeadline
from repro.train import DDPTrainer, TrainConfig, TrimChannel
from repro.transport import AIMD, GoBackNReceiver, GoBackNSender, segment_bytes

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


def value(registry, family, **labels):
    return registry.get(family).value(**labels)


def links(net):
    """Every egress link of ``net``: host uplinks and switch ports."""
    yield from (host.uplink for host in net.hosts.values())
    for switch in net.switches.values():
        yield from switch.ports.values()


# -- the bug at the parent: a collected network took its counts along ----------


def overflow_a_dumbbell():
    """Build a shallow dumbbell, overflow it, return what it counted."""
    net = dumbbell(
        pairs=1,
        edge_rate_bps=10e9,
        bottleneck_rate_bps=1e9,
        trim_policy=SingleLevelTrim(),
        buffer_bytes=6_000,
    )
    # Gradient packets are trimmed on overflow, opaque ones dropped.
    gradient = packetize(
        codec_by_name("rht", root_seed=1, row_size=1024).encode(np.ones(40_000)), "tx0", "rx0"
    )
    opaque = segment_bytes("tx0", "rx0", 150_000, flow_id=2)
    for pair in zip(gradient, opaque):
        for packet in pair:
            net.hosts["tx0"].send(packet)
    net.sim.run()
    counted = Counter()
    for name, switch in net.switches.items():
        stats = switch.stats
        counted["repro_switch_forwarded_total", name] = stats.forwarded
        counted["repro_switch_trimmed_total", name] = stats.trimmed
        counted["repro_switch_trim_bytes_saved_total", name] = stats.trimmed_bytes_saved
        for kind, drops in stats.drops_by_kind.items():
            counted["repro_switch_dropped_total", name, kind] = drops
    for link in links(net):
        label = f"{link.src}->{link.dst.name}"
        counted["repro_link_packets_sent_total", label] = link.packets_sent
        counted["repro_link_bytes_sent_total", label] = link.bytes_sent
    return counted


def test_collected_networks_are_counted_and_same_names_add_up(registry):
    counted = overflow_a_dumbbell()
    gc.collect()
    counted += overflow_a_dumbbell()  # same switch and link names again
    gc.collect()  # both networks are gone before anything reads the registry
    assert counted["repro_switch_forwarded_total", "s0"] > 0
    assert counted["repro_switch_dropped_total", "s0", "buffer-overflow"] > 0
    seen = set()
    for (family, *key), expected in counted.items():
        series = dict(registry.get(family).series())
        assert series.get(tuple(key), 0.0) == expected, (family, key)
        seen.add(family)
    # Nothing else carries a switch/link label: the families hold exactly this.
    for metric in registry.collect():
        if metric.name.startswith(("repro_switch_", "repro_link_")):
            wanted = sum(n for (f, *_), n in counted.items() if f == metric.name)
            assert metric.total() == wanted, metric.name
    assert seen >= {"repro_switch_forwarded_total", "repro_link_packets_sent_total"}


def test_a_flush_drops_the_hooks_of_dead_devices(registry):
    overflow_a_dumbbell()
    gc.collect()
    assert registry._flush_hooks  # tallies wait for the first flush ...
    registry.flush()
    assert registry._flush_hooks == []  # ... and do not outlive it


def test_unread_devices_do_not_pile_up(registry):
    """A loop that builds and drops devices without ever reading stays
    bounded: registration sweeps the dead once the list has doubled, and
    what they had counted is neither lost nor counted twice."""
    for _ in range(5_000):
        switch = Switch("sw", Simulator())
        switch._drop(Packet(src="a", dst="b"), "no-route")
    assert len(registry._flush_hooks) < 3_000
    assert value(registry, "repro_switch_dropped_total", switch="sw", kind="no-route") == 5_000


def lossy_go_back_n_transfer(until):
    """One go-back-N message over a wire that trims and drops, run until
    ``until``; returns what the endpoints counted, by family."""
    net = dumbbell(pairs=1)
    net.set_impairment("s0", "s1", trim_prob=0.3, drop_prob=0.05)
    sender = GoBackNSender(
        net.hosts["tx0"], flow_id=1, cc=AIMD(initial_window=16), rto_min=1e-4
    )
    receiver = GoBackNReceiver(net.hosts["rx0"], flow_id=1)
    gradient = codec_by_name("rht", root_seed=0, row_size=1024).encode(np.ones(20_000))
    sender.send_message(packetize(gradient, "tx0", "rx0", flow_id=1))
    net.sim.run(until=until)
    tally = sender.tally
    return Counter(
        {
            ("repro_transport_messages_total", "GoBackNSender"): tally.messages_delivered,
            ("repro_transport_packets_emitted_total", "GoBackNSender"): tally.packets_emitted,
            ("repro_transport_retransmissions_total", "GoBackNSender"): tally.retransmissions,
            ("repro_transport_timeouts_total", "GoBackNSender"): tally.timeouts,
            ("repro_transport_trimmed_rejected_total", "GoBackNReceiver"): (
                receiver.trimmed_rejected
            ),
            ("repro_transport_out_of_order_discarded_total", "GoBackNReceiver"): (
                receiver.out_of_order_discarded
            ),
        }
    )


def test_collected_endpoints_are_counted(registry):
    """Endpoints dropped unread — one pair mid-message, with nobody to
    close it — still reach the registry, whatever the collector did."""
    counted = lossy_go_back_n_transfer(until=5.0)
    gc.collect()
    assert counted["repro_transport_messages_total", "GoBackNSender"] == 1
    abandoned = lossy_go_back_n_transfer(until=2e-4)  # never finishes
    gc.collect()
    assert abandoned["repro_transport_messages_total", "GoBackNSender"] == 0
    assert abandoned["repro_transport_packets_emitted_total", "GoBackNSender"] > 0
    counted += abandoned
    for (family, label), plain in counted.items():
        assert plain > 0, family  # the wire really exercised every counter
        assert value(registry, family, transport=label) == plain, family


# -- the inventory: every (plain counter, family) pair ------------------------


def test_registry_equals_plain_counters_after_a_fault_scenario(registry):
    previous = get_int_collector()
    enable_int()
    collector = INTCollector(enabled=True)
    set_int_collector(collector)
    try:
        run = run_scenario(scenario_by_name("incast-plus-corruption"), seed=7)
    finally:
        disable_int()
        set_int_collector(previous)
    net = run.network
    for name, switch in net.switches.items():
        stats = switch.stats
        for family, plain in (
            ("repro_switch_forwarded_total", stats.forwarded),
            ("repro_switch_trimmed_total", stats.trimmed),
            ("repro_switch_trim_bytes_saved_total", stats.trimmed_bytes_saved),
            ("repro_switch_ecmp_collisions_total", stats.ecmp_collisions),
            ("repro_switch_reroutes_total", stats.reroutes),
        ):
            assert value(registry, family, switch=name) == plain, (family, name)
        for kind, drops in stats.drops_by_kind.items():
            assert value(registry, "repro_switch_dropped_total", switch=name, kind=kind) == drops
    for link in links(net):
        label = f"{link.src}->{link.dst.name}"
        for family, plain in (
            ("repro_link_packets_sent_total", link.packets_sent),
            ("repro_link_bytes_sent_total", link.bytes_sent),
            ("repro_link_packets_dropped_total", link.packets_dropped),
            ("repro_link_packets_trimmed_total", link.packets_trimmed),
        ):
            assert value(registry, family, link=label) == plain, (family, label)

    senders = list(run.senders.values())
    receivers = [
        handler.__self__
        for host in net.hosts.values()
        for handler in host._handlers.values()
        if type(handler.__self__).__name__.endswith("Receiver")
    ]
    assert len(senders) == len(receivers) == 4
    transport_pairs = (
        (senders, "repro_transport_messages_total", "messages_delivered"),
        (senders, "repro_transport_packets_emitted_total", "packets_emitted"),
        (senders, "repro_transport_retransmissions_total", "retransmissions"),
        (senders, "repro_transport_timeouts_total", "timeouts"),
        (senders, "repro_transport_surrenders_total", "surrenders"),
        (senders, "repro_transport_trims_reported_total", "trims_reported"),
        (receivers, "repro_transport_trimmed_accepted_total", "trimmed_accepted"),
        (receivers, "repro_transport_corrupt_rejected_total", "corrupt_rejected"),
        (receivers, "repro_transport_nacks_total", "nacks_sent"),
    )
    for endpoints, family, attribute in transport_pairs:
        plain = sum(
            getattr(getattr(endpoint, "tally", endpoint), attribute) for endpoint in endpoints
        )
        label = type(endpoints[0]).__name__
        assert value(registry, family, transport=label) == plain, family
    # The scenario really exercised the rare counters, not just zeros.
    assert sum(sender.tally.retransmissions for sender in senders) > 0
    assert sum(receiver.corrupt_rejected for receiver in receivers) > 0

    injected = Counter((event["fault"], event["target"]) for event in run.injector.events)
    assert injected and sum(injected.values()) == sum(run.injector.counts.values())
    for (fault, target), count in injected.items():
        assert value(registry, "repro_faults_injected_total", fault=fault, target=target) == count

    assert collector.records_collected > 0
    for decision, count in collector.records_by_decision.items():
        name = decision_name(decision)
        assert value(registry, "repro_int_records_total", decision=name) == count


def test_registry_equals_plain_counters_after_training(registry):
    train, test = make_dataset(
        num_classes=8, train_per_class=16, test_per_class=8, image_size=8, noise=1.0, seed=0
    )
    channel = TrimChannel(
        codec_by_name("rht", root_seed=1, row_size=1024), trim_rate=0.2, drop_rate=0.3, seed=2
    )
    trainer = DDPTrainer(
        LogisticRegression(192, 8, seed=0),
        train,
        test,
        world_size=2,
        hook=AllReduceHook(channel),
        config=TrainConfig(epochs=2, batch_size=8, lr=0.1, seed=0, augment=False),
    )
    trainer.train()
    stats = channel.stats
    assert stats.packets_dropped > 0 and trainer._rounds_run > 0
    assert value(registry, "repro_train_rounds_total", run=trainer.label) == trainer._rounds_run
    assert (
        value(registry, "repro_channel_packets_dropped_total", channel="TrimChannel")
        == stats.packets_dropped
    )
    assert (
        value(registry, "repro_channel_rounds_surrendered_total", channel="TrimChannel")
        == stats.rounds_surrendered
    )


def test_registry_equals_plain_counters_of_the_resilience_state(registry):
    membership = Membership(world_size=4, evict_after=2, label="run")
    for _ in range(2):
        membership.miss(3)
    membership.readmit(3)
    membership.miss(1)
    membership.miss(1)
    deadline = RoundDeadline(deadline_s=1.0, label="run")
    deadline.begin_round({0: 0.5, 1: 2.0, 2: float("inf")})
    deadline.begin_round({0: 0.5, 1: 0.6, 2: 3.0})
    assert (membership.evictions, membership.rejoins, deadline.total_stragglers) == (2, 1, 3)
    assert value(registry, "repro_resilience_evictions_total", run="run") == 2
    assert value(registry, "repro_resilience_rejoins_total", run="run") == 1
    assert value(registry, "repro_resilience_stragglers_total", run="run") == 3
    # Reading twice adds nothing: publication is the growth, not the total.
    assert value(registry, "repro_resilience_stragglers_total", run="run") == 3


# -- the rule itself -----------------------------------------------------------------


def test_counters_are_written_only_by_publication_functions():
    """Outside ``_publish_metrics`` nothing in ``src/`` adds to a counter.

    A counter is whatever a ``registry.counter(...)`` expression was
    assigned to, attribute or local; adding is ``.inc(`` or ``.publish(``.
    Most sources hand a tally to ``registry.publish_tally`` and own no
    counter at all; the hand-written publication functions that remain
    (per-kind drops, the fault log, INT decisions) must not mention
    ``self``, or the registry would keep their owner alive for ever.
    """
    offenders, publishers = [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "metrics.py" and path.parent.name == "obs":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        counters = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "counter"
                for call in ast.walk(node.value)
            ):
                for target in node.targets:
                    counters.add(target.attr if isinstance(target, ast.Attribute) else target.id)

        def visit(node, function):
            nonlocal publishers
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
                if function == "_publish_metrics":
                    publishers += 1
                    if any(isinstance(n, ast.Name) and n.id == "self" for n in ast.walk(node)):
                        offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno} holds self")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("inc", "publish")
            ):
                receiver = node.func.value
                name = receiver.attr if isinstance(receiver, ast.Attribute) else getattr(
                    receiver, "id", None
                )
                if name in counters and function != "_publish_metrics":
                    offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno} in {function}")
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, "<module>")
    assert not offenders, offenders
    assert publishers >= 3  # the walk really found the hand-written ones
