"""Multi-tenant isolation regressions.

Two anchors:

* a single job on an idle fabric must match the in-memory single-job
  baseline *exactly*, seed for seed — the fabric may add latency, never
  arithmetic;
* two identical jobs sharing a congested core must be treated evenly —
  trim fractions within a tolerance band, both finishing training.
"""

import re

import numpy as np
import pytest

from repro.cluster import ClusterDriver, ClusterScenario, JobSpec, TenantSpec
from repro.collectives.hooks import AllReduceHook
from repro.core.codec import codec_by_name
from repro.net import dumbbell
from repro.nn.data import make_dataset
from repro.nn.models import MLP
from repro.resilience import EFChannel
from repro.train.ddp import DDPTrainer, TrainConfig
from repro.train.network_channel import NetworkChannel
from repro.train.trim_channel import TrimChannel

SEED = 5

#: Trim-fraction gap two identical co-located jobs may show before we
#: call the fabric unfair.
FAIRNESS_BAND = 0.05


def _baseline(job_seed: int, label: str, workers: int, epochs: int, ef: bool):
    """The PR-1-era in-memory recipe the fabric must reproduce exactly
    (trained; returned as the trainer so EF residuals can be read)."""
    train_set, test_set = make_dataset(
        num_classes=8,
        train_per_class=16,
        test_per_class=8,
        image_size=8,
        noise=1.0,
        seed=job_seed,
    )
    model = MLP(192, [16], 8, seed=job_seed + 3)
    codec = codec_by_name("rht", root_seed=job_seed + 1, row_size=1024)
    channel = TrimChannel(codec, 0.0, seed=job_seed + 2)
    hook = AllReduceHook(EFChannel(channel) if ef else channel)
    trainer = DDPTrainer(
        model,
        train_set,
        test_set,
        world_size=workers,
        hook=hook,
        config=TrainConfig(
            epochs=epochs, batch_size=8, lr=0.1, seed=job_seed, augment=True
        ),
        label=label,
    )
    trainer.train()
    return trainer


class TestIdleFabricParity:
    @pytest.mark.parametrize("ef", [False, True])
    def test_single_job_matches_in_memory_baseline(self, ef):
        scenario = ClusterScenario(
            name="idle-parity",
            description="one job, empty fabric",
            jobs=(JobSpec(name="job0", workers=2, epochs=2, ef=ef),),
        )
        driver = ClusterDriver(scenario, seed=SEED)
        report = driver.run()
        fabric_history = driver.runtimes[0].trainer.history

        baseline = _baseline(SEED, "job0", workers=2, epochs=2, ef=ef)
        assert fabric_history.to_json() == baseline.history.to_json()
        if ef:
            # One EFChannel on both sides, equal residual bits per worker.
            fabric_ef = driver.runtimes[0].hook.channel
            for worker in range(2):
                assert np.array_equal(
                    fabric_ef.residual(worker),
                    baseline.hook.channel.residual(worker),
                )

        job = report["jobs"]["job0"]
        assert job["trim_fraction"] == 0.0
        assert job["rounds_surrendered"] == 0
        # An idle fabric drops nothing and attributes nothing.
        assert report["fabric"]["dropped"] == 0
        assert report["fabric"]["trimmed"] == 0
        assert report["attribution"] == {}

    def test_one_job_wave_is_a_network_channel_transfer(self):
        """The same vector through the fabric's wave and through a
        NetworkChannel: one wire path, so equal bytes out and equal
        accounting."""
        scenario = ClusterScenario(
            name="idle-wave",
            description="one worker, empty fabric",
            jobs=(JobSpec(name="job0", workers=1, epochs=1),),
        )
        driver = ClusterDriver(scenario, seed=SEED)
        hook = driver.runtimes[0].hook
        flat = np.random.default_rng(SEED).standard_normal(5000)

        hook.launch([flat], epoch=1)
        driver._run_wave([hook])
        over_fabric = hook.complete()

        channel = NetworkChannel(
            lambda: dumbbell(pairs=1), hook.codec, "tx0", "rx0", mtu=scenario.mtu
        )
        over_channel = channel.transfer(flat, epoch=1, message_id=1)

        assert over_fabric.tobytes() == over_channel.tobytes()
        assert hook.stats.coordinates == flat.size
        assert hook.stats.packets_total > 0
        assert hook.stats == channel.stats
        assert hook.fcts and channel.fcts


def _contended_scenario() -> ClusterScenario:
    # Both jobs pin seed_offset=0: identical data, model, codec — the
    # only difference between them is where placement puts their flows.
    return ClusterScenario(
        name="twin-jobs",
        description="two identical jobs vs an incast storm",
        jobs=(
            JobSpec(name="job0", workers=2, epochs=2, seed_offset=0),
            JobSpec(name="job1", workers=2, epochs=2, seed_offset=0),
        ),
        tenants=(
            TenantSpec(
                name="storm",
                pattern="incast",
                flows=3,
                burst_bytes=60_000,
                period_s=1e-3,
                dst_pod=1,
            ),
        ),
    )


class TestSharedCoreFairness:
    def test_identical_jobs_see_similar_trim_fractions(self):
        driver = ClusterDriver(_contended_scenario(), seed=SEED)
        report = driver.run()
        tf0 = report["jobs"]["job0"]["trim_fraction"]
        tf1 = report["jobs"]["job1"]["trim_fraction"]
        assert abs(tf0 - tf1) <= FAIRNESS_BAND
        for name in ("job0", "job1"):
            job = report["jobs"][name]
            assert job["epochs"] == 2
            assert not job["diverged"]
        assert report["fairness"]["jain_goodput"] > 0.9

    def test_attribution_owners_are_known(self):
        driver = ClusterDriver(_contended_scenario(), seed=SEED)
        report = driver.run()
        allowed = {"job0", "job1", "storm", "other"}
        assert set(report["attribution"]) <= allowed
        # The storm is the aggressor: if anything was cut, the tenant
        # must be among the owners charged for it.
        total_cut = report["fabric"]["dropped"] + report["fabric"]["trimmed"]
        if total_cut:
            charged = sum(
                v["drop"] + v["trim"] for v in report["attribution"].values()
            )
            assert charged == total_cut
            assert "storm" in report["attribution"]


class TestDeterminism:
    def test_same_seed_reports_are_equal(self):
        report_a = ClusterDriver(_contended_scenario(), seed=9).run()
        report_b = ClusterDriver(_contended_scenario(), seed=9).run()
        assert report_a == report_b

    def test_different_seeds_differ(self):
        report_a = ClusterDriver(_contended_scenario(), seed=9).run()
        report_b = ClusterDriver(_contended_scenario(), seed=10).run()
        assert report_a != report_b


class TestScenarioSpec:
    def test_round_trip(self):
        scenario = _contended_scenario()
        assert ClusterScenario.from_dict(scenario.to_dict()) == scenario

    def test_unknown_keys_rejected(self):
        data = _contended_scenario().to_dict()
        data["oversubscription"] = 4
        with pytest.raises(ValueError, match="unknown cluster scenario keys"):
            ClusterScenario.from_dict(data)

    @pytest.mark.parametrize("part, what", [("jobs", "job"), ("tenants", "tenant")])
    def test_unknown_job_and_tenant_keys_named(self, part, what):
        data = _contended_scenario().to_dict()
        data[part][0]["workerz"] = 2
        expected = rf"unknown {what} keys: \['workerz'\]; a {what} takes"
        with pytest.raises(ValueError, match=expected):
            ClusterScenario.from_dict(data)

    def test_missing_required_key_named(self):
        data = _contended_scenario().to_dict()
        del data["jobs"][0]["name"]
        with pytest.raises(ValueError, match=r"job lacks required keys: \['name'\]"):
            ClusterScenario.from_dict(data)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ClusterScenario(
                name="dup",
                description="",
                jobs=(JobSpec(name="a"), JobSpec(name="a")),
            )

    def test_presets_build_and_round_trip(self):
        from repro.cluster import CLUSTER_PRESETS

        for name, scenario in CLUSTER_PRESETS.items():
            assert scenario.name == name
            assert ClusterScenario.from_dict(scenario.to_dict()) == scenario


class TestClusterCLI:
    """``repro-cluster run FILE`` on a file it cannot use: one line that
    names the file and what is wrong, exit status 2, no traceback."""

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file"),
            ("{nope", "Expecting property name"),
            ('{"name": "x", "description": "", "jobs": [{"name": "j", "workerz": 2}]}',
             r"unknown job keys: \['workerz'\]"),
        ],
        ids=["missing", "not-json", "unknown-key"],
    )
    def test_bad_scenario_file(self, tmp_path, capsys, content, reason):
        from repro.cluster.cli import main

        path = tmp_path / "scenario.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path)])
        assert exc.value.code == 2
        (line,) = [line for line in capsys.readouterr().err.splitlines() if ": error: " in line]
        assert line.startswith(f"repro-cluster run: error: argument scenario: {path}: ")
        assert re.search(reason, line) and "\n" not in line
