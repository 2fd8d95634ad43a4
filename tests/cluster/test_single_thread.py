"""The cluster driver is one thread driving resumable trainers.

Regressions for what the thread-per-job driver got wrong: span
parentage across jobs (the tracer's span context stack is process
global) and a job failure leaving the other jobs parked forever.
"""

import json
import threading

import pytest

from repro.cluster import (
    JOB_FLOW_BASE,
    JOB_FLOW_BLOCK,
    ClusterDriver,
    ClusterScenario,
    JobSpec,
)
from repro.obs.trace import Tracer, set_tracer

SEED = 5


def _two_jobs() -> ClusterScenario:
    return ClusterScenario(
        name="two-jobs",
        description="two jobs, empty fabric",
        jobs=(
            JobSpec(name="job0", workers=2, epochs=1),
            JobSpec(name="job1", workers=2, epochs=1),
        ),
    )


def _traced_run() -> Tracer:
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        ClusterDriver(_two_jobs(), seed=SEED).run()
    finally:
        set_tracer(previous)
    return tracer


class TestSpanParentage:
    def test_every_message_descends_from_its_own_jobs_round(self):
        tracer = _traced_run()
        by_id = {span.span_id: span for span in tracer.spans}
        messages = [span for span in tracer.spans if span.name == "transport.message"]
        assert messages
        owners = set()
        for span in messages:
            owner = (span.attrs["flow_id"] - JOB_FLOW_BASE) // JOB_FLOW_BLOCK
            owners.add(owner)
            ancestor = span
            while ancestor.name != "train.round":
                ancestor = by_id[ancestor.parent_id]
            assert ancestor.attrs["run"] == f"job{owner}"
        assert owners == {0, 1}
        assert tracer.open_spans() == []

    def test_same_seed_same_span_json(self):
        first, second = _traced_run(), _traced_run()
        dump = lambda tracer: json.dumps(  # noqa: E731
            [span.to_json() for span in tracer.spans], sort_keys=True
        )
        assert dump(first) == dump(second)


class TestFailureSurfacing:
    def test_a_failing_job_raises_out_of_run_and_no_thread_starts(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the cluster driver must not start threads")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        driver = ClusterDriver(_two_jobs(), seed=SEED)
        optimizer = driver.runtimes[1].trainer.optimizer
        step, calls = optimizer.step, []

        def failing_step():
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("job1 lost its optimizer")
            step()

        optimizer.step = failing_step
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="job1 lost its optimizer"):
            driver.run()
        assert threading.active_count() == threads_before
        # job0 was not left half-way through a wave it can never finish.
        waves = [len(driver.runtimes[job].hook.wave_log) for job in (0, 1)]
        assert waves == [2, 2]
