"""Oracle for the sender's retransmission timer.

Every ACK re-arms a sender's RTO timer.  ``MessageSenderBase._arm_timer``
moves the pending timer with :meth:`Simulator.reschedule` instead of
cancelling it and posting a new one.  ``eager_arm_timer`` below is the
cancel-and-post it replaced, kept as reference code.  On fault presets
where timers really expire, both must give every host the same packets
at the same instants, and the same event count and JSONL log.
"""

import pytest

from repro.faults.cli import render_jsonl
from repro.faults.harness import run_scenario
from repro.faults.scenarios import scenario_by_name
from repro.net.host import Host
from repro.transport.base import MessageSenderBase


def eager_arm_timer(self):
    """The reference re-arm: cancel the pending timer, post a fresh one."""
    self._cancel_timer()
    self._timer = self.sim.schedule(self.rtt.rto, self._timer_fired)


def _observe(monkeypatch, preset, transport, eager):
    if eager:
        monkeypatch.setattr(MessageSenderBase, "_arm_timer", eager_arm_timer)
    log = []
    receive = Host.receive

    def logging_receive(self, packet, ingress=None):
        log.append(
            (
                self.sim.now,
                self.name,
                packet.flow_id,
                packet.seq,
                packet.is_ack,
                packet.is_trimmed,
                packet.ecn,
                packet.wire_size,
            )
        )
        receive(self, packet, ingress)

    monkeypatch.setattr(Host, "receive", logging_receive)
    try:
        run = run_scenario(scenario_by_name(preset), transport=transport, seed=7)
    finally:
        monkeypatch.undo()
    timeouts = sum(sender.tally.timeouts for sender in run.senders.values())
    return {
        "deliveries": log,
        "events": run.network.sim.events_processed,
        "jsonl": render_jsonl(run),
        "timeouts": timeouts,
    }


@pytest.mark.parametrize(
    "preset,transport",
    [
        ("ack-storm-loss", "pull"),
        ("ack-storm-loss", "trimming"),
        ("incast-plus-corruption", "gbn"),
        ("worker-crash", "trimming"),
    ],
)
def test_moved_timer_matches_cancel_and_post(monkeypatch, preset, transport):
    moved = _observe(monkeypatch, preset, transport, eager=False)
    eager = _observe(monkeypatch, preset, transport, eager=True)
    for part in moved:
        assert moved[part] == eager[part], part
    # Worth something only where timers expire, not just get re-armed.
    assert moved["timeouts"] > 0
    assert len(moved["deliveries"]) > 100
