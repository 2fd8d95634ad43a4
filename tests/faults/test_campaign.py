"""Chaos-campaign orchestrator tests.

Fast layers (plan drawing, inventory, shrink mechanics against a stub
runner, serialization) run everywhere; the end-to-end cluster runs are
small (idle-1job) and double as the determinism regression for the
campaign JSONL artifact format.
"""

import json
import re
from dataclasses import replace

import pytest

from repro.cluster import ClusterDriver, cluster_scenario_by_name
from repro.faults import FaultSpec
from repro.faults.campaign import (
    CAMPAIGN_KINDS,
    CampaignConfig,
    CampaignPlan,
    CampaignResult,
    Violation,
    draw_plan,
    fabric_inventory,
    render_campaign_jsonl,
    run_campaign,
    shrink_plan,
)
from repro.faults.cli import main as faults_main
from repro.obs.int_telemetry import (
    INTCollector,
    disable_int,
    enable_int,
    set_int_collector,
)


class TestConfig:
    def test_round_trip(self):
        config = CampaignConfig(cluster="idle-1job", seed=9, faults=5)
        assert CampaignConfig.from_dict(config.to_dict()) == config

    def test_unknown_keys_rejected(self):
        data = CampaignConfig().to_dict()
        data["blast_radius"] = 11
        with pytest.raises(ValueError, match="unknown campaign config keys"):
            CampaignConfig.from_dict(data)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one fault"):
            CampaignConfig(faults=0)
        with pytest.raises(ValueError, match="subset"):
            CampaignConfig(kinds=("crash",))
        with pytest.raises(ValueError, match="subset"):
            CampaignConfig(kinds=())


class TestInventory:
    def test_fat_tree_targets(self):
        net = ClusterDriver.build_network(
            cluster_scenario_by_name("idle-1job"), seed=0
        )
        inventory = fabric_inventory(net)
        assert inventory.links and inventory.ports and inventory.switches
        for label in inventory.links:
            src, dst = label.split("->")
            assert src in net.switches and dst in net.switches
        for label in inventory.ports:
            switch, neighbor = label.split(":")
            assert neighbor in net.switches[switch].ports
        # Device targets are aggregation/core tier only: killing one
        # must never strand a host behind a dead edge switch.
        for target in inventory.switches:
            switch = net.switches[target.split(":", 1)[1]]
            assert all(n in net.switches for n in switch.ports)

    def test_deterministic_ordering(self):
        net = ClusterDriver.build_network(
            cluster_scenario_by_name("idle-1job"), seed=0
        )
        assert fabric_inventory(net) == fabric_inventory(net)


class TestDrawPlan:
    def test_same_config_same_plan(self):
        config = CampaignConfig(cluster="idle-1job", seed=4, faults=6)
        assert draw_plan(config) == draw_plan(config)

    def test_different_seeds_differ(self):
        a = draw_plan(CampaignConfig(cluster="idle-1job", seed=4, faults=6))
        b = draw_plan(CampaignConfig(cluster="idle-1job", seed=5, faults=6))
        assert a.faults != b.faults

    def test_kind_pool_honored(self):
        config = CampaignConfig(
            cluster="idle-1job", seed=2, faults=8, kinds=("gray-failure", "blackout")
        )
        plan = draw_plan(config)
        assert len(plan.faults) == 8
        assert {spec.fault for spec in plan.faults} <= {"gray-failure", "blackout"}

    def test_plan_round_trips_through_json(self):
        plan = draw_plan(CampaignConfig(cluster="idle-1job", seed=7, faults=4))
        payload = json.loads(json.dumps(plan.to_dict()))
        assert CampaignPlan.from_dict(payload) == plan

    def test_every_kind_drawable(self):
        plan = draw_plan(
            CampaignConfig(cluster="idle-1job", seed=1, faults=40)
        )
        assert {spec.fault for spec in plan.faults} == set(CAMPAIGN_KINDS)


def _stub_result(plan, violations=()):
    return CampaignResult(
        plan=plan,
        report={},
        fault_events=[],
        fault_counts={},
        int_summary={},
        violations=tuple(violations),
        sim_time_s=0.0,
        steps=0,
    )


class TestShrink:
    CULPRIT = FaultSpec("flap", "s0->s1", start_s=0.0, down_s=1e-3)

    def _plan(self, n_noise=4):
        noise = tuple(
            FaultSpec("corrupt", f"s0->s{i + 2}", rate=0.1) for i in range(n_noise)
        )
        config = CampaignConfig(cluster="idle-1job", seed=0, faults=n_noise + 1)
        return CampaignPlan(config=config, faults=noise[:2] + (self.CULPRIT,) + noise[2:])

    def _stub_run(self, plan):
        violated = self.CULPRIT in plan.faults
        return _stub_result(
            plan,
            [Violation("no-livelock", "stub")] if violated else [],
        )

    def test_shrinks_to_the_culprit(self):
        plan = self._plan()
        shrunk = shrink_plan(plan, "no-livelock", run=self._stub_run)
        assert shrunk.faults == (self.CULPRIT,)

    def test_trace_records_candidates(self):
        trace = []
        shrink_plan(self._plan(), "no-livelock", run=self._stub_run, trace=trace)
        assert trace
        assert {step["still_failing"] for step in trace} == {True, False}
        assert all(step["kept"] >= 1 for step in trace)

    def test_rejects_plan_that_does_not_fail(self):
        plan = self._plan()
        healthy = replace(plan, faults=plan.faults[:2])
        with pytest.raises(ValueError, match="nothing to shrink"):
            shrink_plan(healthy, "no-livelock", run=self._stub_run)

    def test_shrink_is_deterministic(self):
        plan = self._plan(n_noise=6)
        a = shrink_plan(plan, "no-livelock", run=self._stub_run)
        b = shrink_plan(plan, "no-livelock", run=self._stub_run)
        assert a == b


class TestRunCampaign:
    def test_invariants_hold_on_small_cluster(self):
        plan = draw_plan(CampaignConfig(cluster="idle-1job", seed=3, faults=3))
        result = run_campaign(plan)
        assert result.ok, [v.to_dict() for v in result.violations]
        assert result.summary()["fault_counts"]

    def test_same_plan_byte_identical_artifacts(self):
        plan = draw_plan(CampaignConfig(cluster="idle-1job", seed=11, faults=3))
        first = "\n".join(render_campaign_jsonl(run_campaign(plan)))
        second = "\n".join(render_campaign_jsonl(run_campaign(plan)))
        assert first == second

    def test_determinism_monitor_runs_twice_clean(self):
        plan = draw_plan(
            CampaignConfig(
                cluster="idle-1job", seed=2, faults=2, check_determinism=True
            )
        )
        result = run_campaign(plan)
        assert "determinism" not in result.violated_monitors


def _fault_free_s(config: CampaignConfig) -> float:
    """Fabric time the campaign's cluster run takes with no fault armed
    (error feedback on and INT bands stamped, as a campaign runs it)."""
    scenario = cluster_scenario_by_name(config.cluster)
    scenario = replace(
        scenario, jobs=tuple(replace(job, ef=True) for job in scenario.jobs)
    )
    previous = set_int_collector(INTCollector(enabled=True))
    enable_int()
    try:
        return ClusterDriver(scenario, seed=config.seed).run()["sim_time_s"]
    finally:
        set_int_collector(previous)
        disable_int()


class TestDefaultsFitTheFabricClock:
    """Faults are drawn on the fabric clock, which advances only while
    gradients are in flight (a preset run is ~0.8-1.2 ms of it): the
    default window and dark times must land inside that, not after."""

    @pytest.mark.parametrize("cluster", ["idle-1job", "elephant-2job", "incast-4job"])
    def test_every_default_fault_starts_inside_the_run_and_is_survived(self, cluster):
        blackholed = []
        for seed in range(10):
            config = CampaignConfig(cluster=cluster, seed=seed)
            plan = draw_plan(config)
            run_s = _fault_free_s(config)
            assert all(spec.start_s < run_s for spec in plan.faults), (seed, run_s)
            result = run_campaign(plan)
            assert result.ok, (seed, [v.to_dict() for v in result.violations])
            if result.report["fabric"]["blackhole_drops"]:
                blackholed.append(seed)
        # Not just armed: some campaigns hit live gradient traffic even
        # on the fabric with no tenant to hit instead.
        assert blackholed, cluster


class TestCampaignCLI:
    def test_run_then_replay_byte_identical(self, tmp_path):
        out = tmp_path / "campaign"
        code = faults_main(
            [
                "campaign",
                "run",
                "--cluster",
                "idle-1job",
                "--seed",
                "6",
                "--faults",
                "2",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        plan_path = out / "plan.json"
        log_path = out / "campaign.jsonl"
        assert plan_path.exists() and log_path.exists()
        replay_path = tmp_path / "replay.jsonl"
        code = faults_main(
            ["campaign", "replay", "--plan", str(plan_path), "--out", str(replay_path)]
        )
        assert code == 0
        assert replay_path.read_bytes() == log_path.read_bytes()

    def test_shrink_on_healthy_plan_is_a_noop(self, tmp_path, caplog):
        """With no ``--monitor``, or one the plan does not violate: one
        line, exit 0, nothing written."""
        out = tmp_path / "campaign"
        faults_main(
            [
                "campaign",
                "run",
                "--cluster",
                "idle-1job",
                "--seed",
                "6",
                "--faults",
                "2",
                "--out-dir",
                str(out),
            ]
        )
        for monitor in ([], ["--monitor", "training-completes"]):
            caplog.clear()
            with caplog.at_level("INFO", logger="repro.faults"):
                code = faults_main(
                    [
                        "campaign",
                        "shrink",
                        "--plan",
                        str(out / "plan.json"),
                        "--out-dir",
                        str(tmp_path / "shrunk"),
                        *monitor,
                    ]
                )
            assert code == 0
            (line,) = [r.getMessage() for r in caplog.records if r.name == "repro.faults"]
            assert line.endswith("nothing to shrink")
            assert not (tmp_path / "shrunk").exists()

    @pytest.mark.parametrize("command", ["replay", "shrink"])
    @pytest.mark.parametrize("case", ["missing", "not-json", "unknown-key"])
    def test_bad_plan_file(self, tmp_path, capsys, command, case):
        """One line naming the file and what is wrong, exit status 2."""
        path = tmp_path / "plan.json"
        plan = draw_plan(CampaignConfig(cluster="idle-1job", seed=1, faults=2)).to_dict()
        plan["faults"][0]["ratez"] = 0.5
        reason = {
            "missing": "No such file",
            "not-json": "Expecting value",
            "unknown-key": r"unknown fault keys: \['ratez'\]",
        }[case]
        if case == "not-json":
            path.write_text("plan:\n  - nope\n")
        elif case == "unknown-key":
            path.write_text(json.dumps(plan))
        extra = ["--out-dir", str(tmp_path / "out")] if command == "shrink" else []
        with pytest.raises(SystemExit) as exc:
            faults_main(["campaign", command, "--plan", str(path), *extra])
        assert exc.value.code == 2
        (line,) = [line for line in capsys.readouterr().err.splitlines() if ": error: " in line]
        assert line.startswith(f"repro-faults campaign {command}: error: argument --plan: {path}: ")
        assert re.search(reason, line)
