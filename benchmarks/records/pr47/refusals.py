"""Count the sets real workloads hand to ``depacketize`` and how many it refuses.

    REPRO_LOG_LEVEL=WARNING PYTHONPATH=src python benchmarks/records/pr47/refusals.py

Wraps ``depacketize_many`` wherever it is bound (``depacketize`` calls it
too) and ``core.packetizer._refuse``, the path every refused set takes,
then runs every fault preset on every transport (seed 7), one chaos
campaign (``elephant-2job``, 4 faults, seed 7: the ledger's
``chaos-campaign`` unit) and ``trim-4job`` (seed 7).  Prints the sets
read and the refusals of each workload.
"""

import sys

import repro.cluster  # noqa: F401  (binds depacketize_many where the driver reads it)
import repro.core.packetizer as packetizer
from repro.cluster import ClusterDriver, cluster_scenario_by_name
from repro.faults.campaign import CampaignConfig, draw_plan, run_campaign
from repro.faults.harness import TRANSPORTS, run_scenario
from repro.faults.scenarios import PRESETS

counts = {"sets": 0, "refusals": 0}
read, refuse = packetizer.depacketize_many, packetizer._refuse


def counted_read(sets, lengths=None):
    sets = list(sets)
    counts["sets"] += len(sets)
    return read(sets, lengths)


def counted_refuse(payload_sets, lengths):
    counts["refusals"] += 1
    refuse(payload_sets, lengths)


for module in list(sys.modules.values()):
    if getattr(module, "depacketize_many", None) is read:
        module.depacketize_many = counted_read
packetizer._refuse = counted_refuse


def report(name, run):
    counts.update(sets=0, refusals=0)
    run()
    print(f"{name}: {counts['sets']:,} sets read, {counts['refusals']} refusals")


report(
    f"{len(PRESETS)} fault presets x {len(TRANSPORTS)} transports, seed 7",
    lambda: [run_scenario(s, transport=t, seed=7) for s in PRESETS.values() for t in TRANSPORTS],
)
report(
    "chaos campaign, elephant-2job, 4 faults, seed 7",
    lambda: run_campaign(draw_plan(CampaignConfig(cluster="elephant-2job", seed=7, faults=4))),
)
report("trim-4job, seed 7", lambda: ClusterDriver(cluster_scenario_by_name("trim-4job"), 7).run())
