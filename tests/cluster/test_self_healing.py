"""Fabric self-healing at cluster scale.

The headline robustness claim: kill a core switch mid-training on the
k=4 fat-tree and the job still completes every epoch and converges —
flows reroute onto the surviving equal-cost legs (visible as
``reroutes`` and ``blackhole`` drops in the fabric report), delivered
packets keep their INT bands intact, and DGC error feedback preserves
gradient mass exactly (the telescoping invariant).
"""

from dataclasses import replace

from repro.cluster import ClusterDriver, cluster_scenario_by_name
from repro.faults import FaultInjector, FaultSpec, Scenario
from repro.faults.campaign import EF_GAP_TOLERANCE
from repro.obs.int_telemetry import (
    INTCollector,
    disable_int,
    enable_int,
    set_int_collector,
)

SEED = 5

#: The kill lands this long after wave 1 starts — while that wave's
#: gradient packets, which hash through core1, are in flight.
KILL_INTO_WAVE_S = 5e-6
#: Dark for about a quarter of the fault-free run (~0.75 ms of fabric
#: time), so the switch is back well before training ends.
KILL_FOR_S = 0.2e-3

#: A healed fabric must not cost accuracy: retransmissions recover every
#: blackholed packet, so the band is slack against seed jitter only.
TOP1_TOLERANCE = 0.15


def _ef_scenario():
    scenario = cluster_scenario_by_name("idle-1job")
    return replace(
        scenario, jobs=tuple(replace(job, ef=True) for job in scenario.jobs)
    )


def _run(seed, kill_at_s=None):
    """One INT-stamped run of the EF scenario, core1 killed at
    ``kill_at_s`` if given."""
    driver = ClusterDriver(_ef_scenario(), seed=seed)
    if kill_at_s is not None:
        fault = Scenario(
            name="core-kill",
            description="whole core switch dies mid-wave",
            faults=(
                FaultSpec(
                    "switch-down", "switch:core1", start_s=kill_at_s, down_s=KILL_FOR_S
                ),
            ),
            duration_s=1.0,
        )
        FaultInjector(driver.net, fault, root_seed=seed).install()
    collector = INTCollector(enabled=True)
    previous = set_int_collector(collector)
    enable_int()
    try:
        report = driver.run()
    finally:
        set_int_collector(previous)
        disable_int()
    return driver, report, collector


def _run_with_kill(seed=SEED):
    # Wave 1 starts where wave 0 ended: read that instant off a
    # fault-free run of the same (scenario, seed), INT bands and all.
    calm, _, _ = _run(seed)
    _, wave0_end_s = calm.runtimes[0].hook.wave_log[0]
    return _run(seed, kill_at_s=wave0_end_s + KILL_INTO_WAVE_S)


class TestCoreSwitchKillMidTraining:
    def test_job_completes_and_converges(self):
        baseline = ClusterDriver(_ef_scenario(), seed=SEED).run()["jobs"]["job0"]
        _, report, _ = _run_with_kill()
        job = report["jobs"]["job0"]
        assert job["epochs"] == 2
        assert not job["diverged"]
        assert abs(job["final_top1"] - baseline["final_top1"]) <= TOP1_TOLERANCE

    def test_fabric_rerouted_around_the_corpse(self):
        driver, report, _ = _run_with_kill()
        fabric = report["fabric"]
        assert fabric["reroutes"] > 0
        # The stale-FIB window bites before convergence moves the flows.
        assert fabric["blackhole_drops"] > 0
        assert any(
            s.stats.drops_by_kind.get("switch-down", 0) > 0
            for s in driver.net.switches.values()
        )
        # Fully healed by the end: device revived, every FIB restored.
        assert fabric["ports_down"] == 0
        assert not any(s.failed for s in driver.net.switches.values())
        assert not any(s.ports_down for s in driver.net.switches.values())

    def test_delivered_packets_keep_int_bands(self):
        _, report, collector = _run_with_kill()
        summary = collector.summary()
        assert summary["records"] > 0
        assert summary["packets"] > 0
        # Every collected decision parses to a known name.
        assert summary["decisions"]
        assert not [d for d in summary["decisions"] if d.startswith("unknown")]

    def test_error_feedback_telescoping_survives_the_kill(self):
        driver, report, _ = _run_with_kill()
        job = report["jobs"]["job0"]
        assert job["ef"] is True
        assert job["ef_telescoping_gap"] <= EF_GAP_TOLERANCE
        assert driver.runtimes[0].hook.ef_telescoping_gap() <= EF_GAP_TOLERANCE


class TestErrorFeedbackAccounting:
    def test_ef_fields_only_when_enabled(self):
        plain = ClusterDriver(
            cluster_scenario_by_name("idle-1job"), seed=SEED
        ).run()["jobs"]["job0"]
        assert plain["ef"] is False
        assert "ef_telescoping_gap" not in plain

        ef_job = ClusterDriver(_ef_scenario(), seed=SEED).run()["jobs"]["job0"]
        assert ef_job["ef"] is True
        assert ef_job["ef_telescoping_gap"] <= EF_GAP_TOLERANCE
        assert ef_job["ef_residual_norms"]

    def test_idle_fabric_ef_matches_plain_training(self):
        """On a lossless fabric the residual is identically zero, so EF
        must not change the training arithmetic at all."""
        plain = ClusterDriver(cluster_scenario_by_name("idle-1job"), seed=SEED).run()
        with_ef = ClusterDriver(_ef_scenario(), seed=SEED).run()
        assert (
            plain["jobs"]["job0"]["top1_curve"] == with_ef["jobs"]["job0"]["top1_curve"]
        )
