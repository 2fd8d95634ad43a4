"""The fault invariant matrix on a multipath fabric with a tenant.

Same contract as ``test_fault_invariants.py`` — terminal state, bounded
work, exactly-once in-order delivery — but every preset × transport pair
now runs on an ECMP-routed k=4 fat-tree while one background tenant
(pod 2 -> pod 1) loads the fabric.  Faults land on the remapped targets
along the ECMP path pair 0 actually hashes to.

Marked ``cluster``: tier-1 runs this file with everything else, the CI
chaos job runs it alone with ``-m cluster``.
"""

import pytest

from repro.faults import PRESETS, run_scenario
from repro.faults.harness import BACKGROUND_FLOW, TRANSPORTS

pytestmark = pytest.mark.cluster

#: Fat-tree runs carry tenant traffic on top of scenario flows: roughly
#: 60k steps each observed; a livelock blows straight past this.
STEP_BOUND = 400_000

CASES = [
    (preset, transport)
    for preset in sorted(PRESETS)
    for transport in TRANSPORTS
]


@pytest.fixture(scope="module")
def runs():
    return {
        (preset, transport): run_scenario(
            PRESETS[preset],
            transport=transport,
            seed=7,
            max_events=STEP_BOUND,
            topology="fat-tree",
            background_traffic=True,
        )
        for preset, transport in CASES
    }


@pytest.mark.parametrize("preset,transport", CASES)
class TestFatTreeFaultInvariants:
    def test_every_flow_reaches_terminal_state(self, runs, preset, transport):
        run = runs[(preset, transport)]
        for flow, sender in run.senders.items():
            assert sender.done or sender.failed, (
                f"{preset}/{transport}: flow {flow} neither completed nor "
                f"surrendered (livelock/deadlock)"
            )

    def test_step_bound(self, runs, preset, transport):
        run = runs[(preset, transport)]
        assert run.steps < STEP_BOUND

    def test_no_duplicate_delivery(self, runs, preset, transport):
        run = runs[(preset, transport)]
        for flow, calls in run.delivery_calls.items():
            assert calls == 1, f"{preset}/{transport}: flow {flow} delivered {calls}x"

    def test_delivered_messages_are_in_order_and_complete(
        self, runs, preset, transport
    ):
        run = runs[(preset, transport)]
        for flow, packets in run.deliveries.items():
            seqs = [p.seq for p in packets]
            assert seqs == sorted(seqs), f"{preset}/{transport}: out of order"
            assert len(set(seqs)) == len(seqs), f"{preset}/{transport}: dup seq"
            assert len(seqs) == packets[0].seq_total

    def test_surrender_is_explicit_and_mutual(self, runs, preset, transport):
        run = runs[(preset, transport)]
        for flow, reason in run.surrenders.items():
            assert reason
            assert run.senders[flow].failed
            assert flow not in run.deliveries

    def test_faults_were_actually_injected(self, runs, preset, transport):
        run = runs[(preset, transport)]
        assert sum(run.fault_counts.values()) > 0, (
            f"{preset}/{transport}: scenario ran but injected nothing"
        )

    def test_fault_targets_live_on_the_fabric(self, runs, preset, transport):
        """Remapped targets name real fat-tree devices, not dumbbell ones."""
        run = runs[(preset, transport)]
        for event in run.events:
            target = event["target"]
            if target.startswith("worker:"):
                continue
            if target.startswith("switch:"):
                # Device-scoped target: the part after the role prefix
                # must be a live switch.
                assert target.split(":", 1)[1] in run.network.switches
                continue
            for part in target.replace("->", ":").split(":"):
                assert part in run.network.hosts or part in run.network.switches

    def test_completed_flows_decode(self, runs, preset, transport):
        run = runs[(preset, transport)]
        for flow in run.deliveries:
            assert flow in run.decode_nmse
            assert run.decode_nmse[flow] < 1.0

    def test_background_tenant_actually_ran(self, runs, preset, transport):
        """The tenant's packets reached hosts (silently counted)."""
        run = runs[(preset, transport)]
        assert BACKGROUND_FLOW not in run.deliveries
        assert BACKGROUND_FLOW not in run.senders


def test_fat_tree_run_is_deterministic():
    run_a = run_scenario(
        PRESETS["flaky-link"], transport="trimming", seed=11,
        topology="fat-tree", background_traffic=True,
    )
    run_b = run_scenario(
        PRESETS["flaky-link"], transport="trimming", seed=11,
        topology="fat-tree", background_traffic=True,
    )
    assert run_a.summary() == run_b.summary()
    assert run_a.events == run_b.events


def test_dumbbell_rejects_background_traffic():
    with pytest.raises(ValueError, match="background_traffic"):
        run_scenario(PRESETS["flaky-link"], topology="dumbbell", background_traffic=True)


def test_unknown_topology_rejected():
    with pytest.raises(ValueError, match="unknown topology"):
        run_scenario(PRESETS["flaky-link"], topology="torus")
