"""The paper's headline on the shared fabric: ``trim-4job`` against its
drop-tail control.

``trim-4job`` is ``incast-4job`` with 256-wide hidden layers (51,464
coordinates a gradient), big enough that the jobs' own fan-in and the
incast tenant overflow the switch buffers.  Its control is the same
scenario with ``trim=False``.  The seed-7 run of each is pinned by the
sha256 of its report as ``repro-cluster run --out`` writes it.  On
seeds 7, 8 and 9 the two runs must show what trimming buys: every job
finishes its transfers sooner, reaches the target accuracy sooner, and
loses packets as trims where drop-tail loses them as drops, while its
final top-1 stays within ``TOP1_MARGIN`` of drop-tail's.
"""

import functools
import hashlib
import json
from dataclasses import replace

import pytest

from repro.cluster import ClusterDriver, JobSpec, cluster_scenario_by_name

SEED = 7
#: Seeds whose trim / drop-tail pair must show the headline.
SEEDS = (7, 8, 9)
#: Largest gap allowed between a job's final top-1 with and without
#: trimming: 8 of its 64 test images.  Measured on the three seeds the
#: largest gap is 7 of 64 (0.109, seed 9, job3, trimming lower); the
#: others are at most 3 of 64.
TOP1_MARGIN = 8 / 64

#: sha256 of the seed-7 report bytes of each run.
DIGESTS = {
    "trim": "0432797261fde689e2846aa5077f956323401e472622f2cfe613ec4f6692329c",
    "drop-tail": "23e08085f3b69910c2cde87bc34502e8a4eb262dbcc7b2780052431f576161f9",
}


@functools.lru_cache(maxsize=None)
def _reports(seed):
    preset = cluster_scenario_by_name("trim-4job")
    return {
        "trim": ClusterDriver(preset, seed=seed).run(),
        "drop-tail": ClusterDriver(replace(preset, trim=False), seed=seed).run(),
    }


def test_the_preset_is_incast_4job_with_wide_jobs():
    incast = cluster_scenario_by_name("incast-4job")
    preset = cluster_scenario_by_name("trim-4job")
    assert [job.hidden for job in incast.jobs] == [16] * 4
    assert preset.jobs == tuple(replace(job, hidden=256) for job in incast.jobs)
    assert replace(preset, name=incast.name, description=incast.description, jobs=incast.jobs) == incast


def test_a_job_needs_a_hidden_layer():
    with pytest.raises(ValueError, match="hidden must be >= 1, got 0"):
        JobSpec(name="job0", hidden=0)


@pytest.mark.parametrize("run", sorted(DIGESTS))
def test_report_bytes_are_pinned(run):
    text = json.dumps(_reports(SEED)[run], indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[run]


def test_trimming_finishes_every_job_sooner():
    for seed in SEEDS:
        trim, drop = (_reports(seed)[run]["jobs"] for run in ("trim", "drop-tail"))
        assert trim.keys() == drop.keys()
        for name in trim:
            assert trim[name]["mean_fct_s"] < drop[name]["mean_fct_s"], (seed, name)
            assert trim[name]["time_to_accuracy_s"] < drop[name]["time_to_accuracy_s"], (
                seed,
                name,
            )


def test_each_fabric_loses_packets_its_own_way():
    for seed in SEEDS:
        trim, drop = (_reports(seed)[run]["fabric"] for run in ("trim", "drop-tail"))
        assert trim["trimmed"] > 0 and trim["dropped"] <= 0.01 * trim["trimmed"], seed
        assert drop["trimmed"] == 0 and drop["dropped"] > 0, seed


def test_trimming_keeps_every_job_near_drop_tail_accuracy():
    for seed in SEEDS:
        trim, drop = (_reports(seed)[run]["jobs"] for run in ("trim", "drop-tail"))
        for name in trim:
            gap = abs(trim[name]["final_top1"] - drop[name]["final_top1"])
            assert gap <= TOP1_MARGIN, (seed, name, gap)
