"""Seeded transport invariants under every fault preset.

The contract this suite enforces, for every preset × transport pair:

* **terminal state** — every flow either completes or surrenders
  explicitly; nothing is left in limbo (no deadlock);
* **bounded work** — the run finishes within a simulator-step budget
  (no livelock);
* **exactly-once delivery** — ``on_message`` fires at most once per
  flow, and a delivered message contains every sequence number exactly
  once, in order.
"""

import hashlib

import pytest

from repro.faults import PRESETS, run_scenario
from repro.faults.cli import render_jsonl
from repro.faults.harness import TRANSPORTS

#: Generous step budget: the heaviest preset (incast, 4 pairs) finishes
#: well under this; a livelocked retransmit storm blows straight past it.
STEP_BOUND = 400_000

CASES = [
    (preset, transport)
    for preset in sorted(PRESETS)
    for transport in TRANSPORTS
]


#: sha256 of each run's ``repro-faults run --out`` bytes, taken before
#: the harness's sender/receiver wiring moved into the shared transfer.
LOG_DIGESTS = {
    ("ack-storm-loss", "gbn"): "fa97874d398753b8e94f33ac4174bd28fe95ec7b821e17b8f30171f5716e61b1",
    ("ack-storm-loss", "pull"): "96247feec153596f4eb0c378db1ba3ed93f5a59d4e76d762c69180a2058b30ac",
    ("ack-storm-loss", "trimming"): "ed1c8f3155b1643ba09ba54d70b036807d0d60cfa4d38c1e7fc624421da3b146",
    ("blackout-recovery", "gbn"): "f7bfc2e87f08733d343c9f4f61186274c829308a5375e6c2f56a4ca4604fd4a0",
    ("blackout-recovery", "pull"): "fdd231cdc025d0c821bfe6aeb7a70d09d22ca664e6dbe333e31fda0ea840882a",
    ("blackout-recovery", "trimming"): "808ccfc1117beb9e682aebd8bb97cf0c48cc90cb25f85285d557f00dc8661f9a",
    ("core-switch-down", "gbn"): "93829af84d64d38429addf3f90118fe4c65a7b96b5803e9254569965b935aa7c",
    ("core-switch-down", "pull"): "0f2b52609fbace56ffa763aa39d066889daf906ff96ec4b5aa9d0ed771b9ba4b",
    ("core-switch-down", "trimming"): "4c2af8594875b94832dd0503efb881eaac2328b7af07cffc4bd5318f5f180bd8",
    ("flaky-link", "gbn"): "0db5c4bc4b948c5c86b748c65994f235186810d7e71c39b772eb6aba46b76a04",
    ("flaky-link", "pull"): "1671266e0986bdbcbb66c10095436c3bdab98420b022593a978e32006981fd64",
    ("flaky-link", "trimming"): "b3fc5d0297496bda623f3aa9d2221b8631def078139e501198cd8911f1f8adfa",
    ("flap-during-allreduce", "gbn"): "615e7e14a522ebc85e24bee0407677c7500978a21ee8a5f5509bbe31a387aa30",
    ("flap-during-allreduce", "pull"): "92b463cacff7acaa02adf6b6cbcd21ea0835ca709cd3d0b165be509cdae49dfd",
    ("flap-during-allreduce", "trimming"): "d6e7295ac8ff3f77593903580bbb4b1b2a4639427958cd33534916a2daa148eb",
    ("gray-core-leak", "gbn"): "5679637f59eafcdef795b305b1cafcec393c067e1f4668ce11ad5e46a9c14f6f",
    ("gray-core-leak", "pull"): "becef149a846a1e0c3ba01de26e27924853b778c829da4549bdcf6c4c70a96a9",
    ("gray-core-leak", "trimming"): "dd4f27087cee8d5e937770b07e1086e495d34adfbe3d4983c21f7abcc39e43d4",
    ("incast-plus-corruption", "gbn"): "71423c3033591075cc9b03865a4d6f60eefb2b8f911a47cf90178b975307dcbc",
    ("incast-plus-corruption", "pull"): "5f1e22901e962b597ffa6f4f2ec9c203e9e0065f9280135b40197fa92870ab8e",
    ("incast-plus-corruption", "trimming"): "851a4e28dc38abba8d5add57b3b73954e9f35c977ec601db5ccd596d43d11ceb",
    ("port-flap-storm", "gbn"): "271d0af5218f8d0ebab99914d7690a9ec1bed8af5fa65d29e8c259a7f7343504",
    ("port-flap-storm", "pull"): "f76a3c4f86f717190940b67734ce3d99f3cddbc09695230970b45c2966e879d8",
    ("port-flap-storm", "trimming"): "e05300521e151ec71f646a7c81a4c961b889947a40c12a7f58fcefd05b8f9a85",
    ("reorder-heavy", "gbn"): "a61024f5bb7bce48008aacc96ca676a59abae0806d90a9afd47689988150051c",
    ("reorder-heavy", "pull"): "e89d740705a37b2e6cf0473c251b1de5b7eeb427c69e8653f97e7056ea1c17f7",
    ("reorder-heavy", "trimming"): "238253b6777427312c3b9a230e1c6c71b9e100408f53a55a03c5a83569bc8c5c",
    ("straggler-storm", "gbn"): "26b1261523aea24351dcba8aac713324135c9da6f5b154b523e3ad941065eff4",
    ("straggler-storm", "pull"): "b18e5a0ab3939bc461a259a07168d95a73a44ece43e86462e95182e6c6465978",
    ("straggler-storm", "trimming"): "4eb3b0f49184016315c2a0fb2beb6e39e876af4c1886a8abbef912ed677d70f5",
    ("worker-crash", "gbn"): "cc810f582d73ca52ffe70607defafb7c26c11d63d52bbf9593231a6737971094",
    ("worker-crash", "pull"): "9d4467b54076ae25307e2a2a9fdcc532691e191ba2ea2dc0f3460c7653cb8473",
    ("worker-crash", "trimming"): "40e8e2af215c470bfc8c8bb641df63ba51c9e637fff8c1d2794ef29133c2c15b",
}


@pytest.fixture(scope="module")
def runs():
    """One shared run per (preset, transport): the suite asserts many
    invariants on each, and the simulations dominate the runtime."""
    return {
        (preset, transport): run_scenario(
            PRESETS[preset], transport=transport, seed=7, max_events=STEP_BOUND
        )
        for preset, transport in CASES
    }


@pytest.mark.parametrize("preset,transport", CASES)
class TestFaultInvariants:
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
        """A surrendered flow reports a reason and never also delivers."""
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

    def test_log_bytes_are_pinned(self, runs, preset, transport):
        """The JSONL log is what it was before the wiring moved."""
        text = "\n".join(render_jsonl(runs[(preset, transport)])) + "\n"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == LOG_DIGESTS[(preset, transport)]

    def test_completed_flows_decode(self, runs, preset, transport):
        """Whatever survived the faults decodes to a finite gradient
        with bounded error — corrupted packets never reach the codec."""
        run = runs[(preset, transport)]
        for flow in run.deliveries:
            assert flow in run.decode_nmse
            assert run.decode_nmse[flow] < 1.0


def test_all_presets_complete_on_clean_transports():
    """Sanity anchor: with faults present but mild (flaky-link), every
    transport still fully delivers — surrender is the exception path,
    not the common case."""
    run = run_scenario(PRESETS["flaky-link"], transport="gbn", seed=3)
    assert run.completed_flows == run.flows
    assert not run.surrenders
