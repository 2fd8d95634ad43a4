"""A wave ends at the instant its last transfer is terminal.

One rule, seen from outside: the fabric clock advances only while a
gradient is in flight, so a job's ``time_to_accuracy_s`` is its
communication time — it follows the fabric's speed and does not depend
on ``deadline_s``, which is only the instant a wave gives up.
"""

import json
from dataclasses import replace

import numpy as np

from repro.cluster import ClusterDriver, ClusterScenario, JobSpec, cluster_scenario_by_name
from repro.faults import FaultInjector, FaultSpec, Scenario
from repro.obs.int_telemetry import (
    INTCollector,
    disable_int,
    enable_int,
    set_int_collector,
)
from repro.obs.trace import Tracer, set_tracer

SEED = 7


def _report_json(scenario: ClusterScenario, seed: int = SEED) -> str:
    return json.dumps(ClusterDriver(scenario, seed=seed).run(), sort_keys=True)


class TestDeadlineIsOnlyTheGiveUpBound:
    def test_a_deadline_nobody_reaches_changes_nothing(self):
        preset = cluster_scenario_by_name("incast-4job")
        assert _report_json(replace(preset, deadline_s=0.2)) == _report_json(preset)

    def test_time_to_accuracy_follows_the_fabric_speed(self):
        preset = cluster_scenario_by_name("incast-4job")
        fast = ClusterDriver(replace(preset, rate_bps=10e9), seed=SEED).run()
        slow = ClusterDriver(replace(preset, rate_bps=1e9), seed=SEED).run()
        for name, job in fast["jobs"].items():
            slow_job = slow["jobs"][name]
            assert slow_job["time_to_accuracy_s"] > 5 * job["time_to_accuracy_s"]
            for fast_end, slow_end in zip(
                job["epoch_fabric_end_s"], slow_job["epoch_fabric_end_s"]
            ):
                assert slow_end > 5 * fast_end


class TestWaveEndsAtItsLastSettle:
    def test_clock_stops_on_the_settling_event(self):
        driver = ClusterDriver(cluster_scenario_by_name("incast-4job"), seed=SEED)
        sim = driver.net.sim
        dispatched = []  # the instant of every event the loop ran

        def run(until=None, max_events=None):
            return sim.run_profiled(
                lambda fn, when, wall_s: dispatched.append(when),
                lambda: 0.0,
                until=until,
                max_events=max_events,
            )

        sim.run = run
        # Per wave: (instant, events dispatched before it) of every settle.
        settles = {}
        settled = driver._transfer_settled

        def spy(wave, *surrender):
            settles.setdefault(wave, []).append((sim.now, len(dispatched)))
            settled(wave, *surrender)

        driver._transfer_settled = spy
        wave_ends = []
        run_wave = driver._run_wave

        def logged_wave(hooks):
            run_wave(hooks)
            wave_ends.append((sim.now, len(dispatched)))

        driver._run_wave = logged_wave
        driver.run()

        assert len(wave_ends) == 16
        for wave, (end_s, events) in enumerate(wave_ends):
            assert len(settles[wave]) == 8  # four jobs, two workers each
            last_settle_s, events_before = max(settles[wave])
            assert end_s == last_settle_s
            # The settling event is the last one the wave dispatched.
            assert events == events_before + 1
            assert dispatched[events - 1] == end_s

    def test_a_wave_with_nothing_in_flight_returns_at_once(self):
        driver = ClusterDriver(cluster_scenario_by_name("idle-1job"), seed=SEED)
        driver._run_wave([driver.runtimes[0].hook])
        assert driver.net.sim.now == 0.0
        assert driver.waves_run == 1


def _short_deadline() -> ClusterScenario:
    return ClusterScenario(
        name="short-deadline",
        description="one job, a deadline a blackout can outlast",
        jobs=(JobSpec(name="job0", workers=2, epochs=1),),
        deadline_s=1e-3,
    )


def _aggregator_port(driver: ClusterDriver) -> str:
    """``"<edge switch>:<host>"`` — the last hop into the job's aggregator."""
    host = driver.runtimes[0].placement.aggregator
    (edge,) = [
        name for name, switch in driver.net.switches.items() if host in switch.ports
    ]
    return f"{edge}:{host}"


class TestTheDeadlineStillBinds:
    def test_a_blackout_longer_than_the_deadline_costs_exactly_the_deadline(self):
        scenario = _short_deadline()
        driver = ClusterDriver(scenario, seed=SEED)
        blackout = Scenario(
            name="receiver-edge-blackout",
            description="the aggregator's edge port goes dark mid-wave",
            faults=(
                FaultSpec(
                    "blackout", _aggregator_port(driver), start_s=5e-6, down_s=1.2e-3
                ),
            ),
            duration_s=1.0,
        )
        FaultInjector(driver.net, blackout, root_seed=SEED).install()
        report = driver.run()
        job = report["jobs"]["job0"]
        hook = driver.runtimes[0].hook
        ends = [end_s for _, end_s in hook.wave_log]
        # Wave 0 gave up at t0 + deadline_s, to the bit, and lost both
        # workers' messages.
        assert ends[0] == scenario.deadline_s
        assert job["rounds_surrendered"] == 2
        # Wave 1 started there, outlived the blackout on its first
        # retransmission (400 us in) and ended when it settled — long
        # before *its* deadline.
        assert 5e-6 + 1.2e-3 < ends[1] < ends[0] + scenario.deadline_s / 2
        assert len(hook.fcts) == 2 * (len(ends) - 1)
        assert job["epochs"] == 1 and not job["diverged"]

    def test_a_straggler_of_a_dead_wave_cannot_end_the_next(self):
        driver = ClusterDriver(_short_deadline(), seed=SEED)
        sim = driver.net.sim
        hook = driver.runtimes[0].hook
        edge, host = _aggregator_port(driver).split(":")
        grads = [np.random.default_rng(SEED + w).standard_normal(5000) for w in (0, 1)]

        driver.net.switches[edge].set_port_down(host, True)
        hook.launch(grads, epoch=1)
        driver._run_wave([hook])
        stragglers = [transfer.sender._on_complete for transfer in hook._in_flight]
        assert len(stragglers) == 2
        assert sim.now == 1e-3
        hook.complete()
        assert hook.stats.rounds_surrendered == 2
        driver.net.switches[edge].set_port_down(host, False)

        t0 = sim.now
        hook.launch(grads, epoch=1)
        # Both senders of the dead wave report in while wave 1 is young:
        # were they counted, wave 1 would end right here, undelivered.
        for straggler in stragglers:
            sim.schedule(1e-6, straggler)
        driver._run_wave([hook])
        assert t0 + 30e-6 < sim.now < t0 + 1e-3
        delivered = hook.complete()
        assert hook.stats.rounds_surrendered == 2
        assert len(hook.fcts) == 2
        assert np.any(delivered)


class TestSameSeedSameBytes:
    @staticmethod
    def _recorded_run(path):
        spans = Tracer(enabled=True)
        previous_spans = set_tracer(spans)
        collector = INTCollector(enabled=True, jsonl_path=str(path))
        previous_int = set_int_collector(collector)
        enable_int()
        try:
            report = ClusterDriver(
                cluster_scenario_by_name("incast-4job"), seed=SEED
            ).run()
        finally:
            collector.close()
            set_int_collector(previous_int)
            disable_int()
            set_tracer(previous_spans)
        span_json = json.dumps([span.to_json() for span in spans.spans], sort_keys=True)
        return json.dumps(report, sort_keys=True), span_json, path.read_bytes()

    def test_report_spans_and_int_records_repeat(self, tmp_path):
        first = self._recorded_run(tmp_path / "a.jsonl")
        second = self._recorded_run(tmp_path / "b.jsonl")
        assert first[2]  # INT records were written
        assert first == second
