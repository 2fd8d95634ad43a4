"""Self-tests of the ledger (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import catalogue
import child
import compare
import protocol
import run
import spans
from refkernel import NOMINAL_INTERP_S, NOMINAL_STREAM_S, RefSample

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"


class FakeClock:
    """Every read advances time by one tick; ``skip`` adds more."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now

    def skip(self, ticks):
        self.now += ticks


def traced(clock=None):
    tracer = spans.Tracer(clock or FakeClock())
    tracer.enabled = True
    return tracer


# -- span self-time arithmetic ---------------------------------------------------------


def test_self_time_nested():
    tracer = traced()
    clock = tracer.clock
    with tracer.span("a"):
        clock.skip(10)
        with tracer.span("b"):
            clock.skip(20)
            with tracer.span("c"):
                clock.skip(5)
            clock.skip(1)
        clock.skip(3)
    durations = {r[0]: r[2] - r[1] for r in tracer.records}
    own = spans.self_times(tracer.records)
    assert own["c"] == durations["c"] == 6
    assert own["b"] == durations["b"] - durations["c"]
    assert own["a"] == durations["a"] - durations["b"]
    assert sum(own.values()) == durations["a"]


def test_self_time_siblings_and_repeated_names():
    tracer = traced()
    clock = tracer.clock
    with tracer.span("root"):
        for ticks in (4, 9):
            with tracer.span("leafy"):
                clock.skip(ticks)
        with tracer.span("other"):
            clock.skip(2)
    own = spans.self_times(tracer.records)
    assert own["leafy"] == (4 + 1) + (9 + 1)
    assert own["other"] == 3
    root = tracer.records[0]
    assert own["root"] == root[2] - root[1] - own["leafy"] - own["other"]


def test_self_time_two_threads_do_not_nest():
    tracer = traced()
    clock = tracer.clock

    def job():
        with tracer.span("job"):
            clock.skip(50)
            with tracer.span("step"):
                clock.skip(7)

    with tracer.span("driver"):
        worker = threading.Thread(target=job)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        clock.skip(5)
    by_name = {r[0]: r for r in tracer.records}
    assert by_name["job"][3] == -1, "a span's parent is on its own thread"
    assert by_name["step"][3] == tracer.records.index(by_name["job"])
    assert by_name["job"][4] != by_name["driver"][4]
    own = spans.self_times(tracer.records)
    driver = by_name["driver"]
    assert own["driver"] == driver[2] - driver[1], "another thread's span is no child"
    assert own["step"] == 8
    assert own["job"] == by_name["job"][2] - by_name["job"][1] - 8


def test_leaf_suppresses_spans_and_collects_inner_time():
    tracer = traced()
    clock = tracer.clock
    plain = tracer.wrap(lambda: clock.skip(3), "plain")
    inner = tracer.wrap_inner(lambda: clock.skip(5), "inner")
    inner()  # outside a leaf: a normal span
    with tracer.span("sim", leaf=True) as index:
        plain()
        inner()
        inner()
        stage_ns = 100
        assert tracer.inner_ns == 12
        buckets = tracer.take_inner()
        tracer.add_children(index, {"stage": stage_ns, "inner@sim": buckets["inner"], "idle": 0})
        clock.skip(200)
    names = [r[0] for r in tracer.records]
    assert names == ["inner", "sim", "stage", "inner@sim"]
    assert buckets == {"inner": 12}
    own = spans.self_times(tracer.records)
    sim = tracer.records[1]
    assert own["sim"] == sim[2] - sim[1] - 100 - 12
    assert own["stage"] == 100 and own["inner@sim"] == 12


def test_disabled_tracer_records_nothing():
    tracer = spans.Tracer(FakeClock())
    wrapped = tracer.wrap(lambda x: x + 1, "f")
    assert wrapped(1) == 2
    with tracer.span("s") as index:
        assert index == -1
    assert tracer.records == []


def test_rebase_makes_a_unit_slice_self_contained():
    tracer = traced()
    with tracer.span("before"):
        pass
    first = len(tracer.records)
    with tracer.span("unit"):
        with tracer.span("work"):
            tracer.clock.skip(4)
    local = spans.rebase(tracer.records[first:], first)
    assert [r[3] for r in local] == [-1, 0]
    assert spans.self_times(local)["work"] == 5


# -- normalisation -------------------------------------------------------------------


def drifting_run(true_unit_s, interp_share, units, interp_drift, stream_drift):
    """``ref, unit, ref, ...`` on a host whose two speeds drift linearly.

    Work costs its nominal time multiplied by the slowdown of its kind at
    the moment it runs; a unit is ``interp_share`` interpreter-bound.
    """
    span = units * (true_unit_s + 0.05)
    at = 0.0
    refs, walls = [], []
    for i in range(2 * units + 1):
        interp = 1.0 + (interp_drift - 1.0) * at / span
        stream = 1.0 + (stream_drift - 1.0) * at / span
        if i % 2 == 0:
            refs.append(RefSample(NOMINAL_INTERP_S * interp, NOMINAL_STREAM_S * stream))
            at += 0.05
        else:
            walls.append(true_unit_s * (interp_share * interp + (1 - interp_share) * stream))
            at += true_unit_s
    return walls, refs


def test_normalisation_recovers_unit_time_under_2x_drift():
    walls, refs = drifting_run(0.4, 0.7, units=12, interp_drift=2.0, stream_drift=1.2)
    assert max(walls) / min(walls) > 1.6, "the raw series really drifts"
    summary = protocol.summarise(walls, refs, 0.7)
    assert summary["unit_s"] == pytest.approx(0.4, rel=0.02)
    assert max(summary["normalised"]) / min(summary["normalised"]) < 1.02
    assert summary["ref_spread"] > protocol.NOISY_REF_SPREAD and summary["noisy"]
    # the wrong mix does not cancel the drift
    assert protocol.summarise(walls, refs, 0.0)["unit_iqr"] > 0.05


def test_units_that_straddle_a_host_flip_are_left_out():
    fast = RefSample(NOMINAL_INTERP_S, NOMINAL_STREAM_S)
    slow = RefSample(NOMINAL_INTERP_S * 1.25, NOMINAL_STREAM_S)
    refs = [fast, fast, fast, slow, slow, slow]
    # unit 2 ran fast although its closing bracket is already slow
    walls = [1.0, 1.0, 1.0, 1.25, 1.25]
    summary = protocol.summarise(walls, refs, 1.0)
    assert summary["steady"] == [0, 1, 3, 4] and summary["reps"] == 4
    assert summary["unit_s"] == pytest.approx(1.0)
    assert summary["normalised"][2] < 0.9, "it would have pulled the median down"
    # too few steady units: use them all rather than report from one or two
    assert protocol.steady_units([fast, slow, fast, slow]) == [0, 1, 2]


def test_summarise_flags_scattered_units_and_needs_bracketing_refs():
    refs = [RefSample(NOMINAL_INTERP_S, NOMINAL_STREAM_S)] * 5
    assert not protocol.summarise([1.0, 1.01, 0.99, 1.0], refs, 0.5)["noisy"]
    assert protocol.summarise([1.0, 1.4, 0.7, 1.0], refs, 0.5)["noisy"]
    with pytest.raises(ValueError):
        protocol.normalise([1.0, 1.0], refs[:2], 0.5)


# -- compare ---------------------------------------------------------------------------


def test_judge_ok_worse_unresolved():
    assert compare.judge([1.0, 1.01, 0.99], [1.05, 1.04, 1.06], 0.10, "lower", False)[0] == "ok"
    assert compare.judge([1.0, 1.01, 0.99], [1.2, 1.21, 1.19], 0.10, "lower", False)[0] == "worse"
    assert compare.judge([1.0, 1.3, 0.7], [1.0, 1.0, 1.0], 0.10, "lower", False)[0] == "unresolved"
    # higher-is-better with an absolute bound (top1)
    assert compare.judge([0.80], [0.79], 0.02, "higher", True)[0] == "ok"
    assert compare.judge([0.80], [0.77], 0.02, "higher", True)[0] == "worse"
    # an exact metric must not move at all
    assert compare.judge([41.98], [41.99], 1e-6, "lower", False)[0] == "worse"


# -- the contract ----------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_catalogue_and_limits():
    written = json.loads(BENCHMARK_JSON.read_text())
    assert written == catalogue.benchmark_json()
    assert set(written) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert written["paths"] == ["benchmarks/ledger"]
    names = [w["name"] for w in written["workloads"]]
    names += [m["name"] for m in written["end_to_end"] + written["per_layer"]]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in written["end_to_end"] + written["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in written["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in written["end_to_end"])
    setup = next(m for m in written["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in written["end_to_end"])
    assert 2 <= len(written["workloads"]) <= 8 and len(written["per_layer"]) <= 128
    assert BENCHMARK_JSON.stat().st_size <= 64 * 1024
    # 68 layer metrics of the issue + the five end-to-end ones the contract's
    # end_to_end list has no room for
    assert len(written["per_layer"]) == 68 + 5
    assert all(layer.moves for layer in catalogue.PER_LAYER)
    runs = 4 + 22 * len(written["workloads"])
    assert runs * 30 <= 3420, "the per-run budget the sizing in run.py assumes"


@pytest.fixture(scope="module")
def quick_records(tmp_path_factory):
    """One ``--quick --trace`` pass over all five workloads (ten children)."""
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=600, check=False,
    )
    assert done.returncode == 0, done.stdout
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"]
    return json.loads(out.read_text())["results"]


def test_quick_run_emits_exactly_the_named_metrics(quick_records):
    written = json.loads(BENCHMARK_JSON.read_text())
    assert [r["workload"] for r in quick_records] == [w["name"] for w in written["workloads"]]
    emitted_somewhere = set()
    for record in quick_records:
        assert record["correct"] and record["units"] == run.QUICK_UNITS
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line = json.loads(run.contract_line([record], trace))
            listed = {m["name"]: m["unit"] for m in written[key]}
            assert set(line["metrics"]) == set(listed)
            assert all(line["metrics"][n]["unit"] == unit for n, unit in listed.items())
            if not trace:
                assert all(m["value"] > 0 for m in line["metrics"].values())
            emitted_somewhere |= {n for n, m in line["metrics"].items() if m["value"]}
        defined_here = {e.name for e in catalogue.END_TO_END if record["workload"] in e.workloads}
        assert set(record["end_to_end"]) == defined_here
        assert record["per_layer"]["bench.unattributed_share"] <= 0.15
        assert record["spans"], "the traced child's span records are written to --out"
    never = {m["name"] for m in written["per_layer"]} - emitted_somewhere
    # counts that are 0 on a healthy commit
    assert never <= {"train.surrendered", "faults.violations", "fail_share"}


def test_exact_counters_agree_between_traced_and_untraced(quick_records):
    for record in quick_records:
        for name, value in record["end_to_end"].items():
            if name not in catalogue.GATED:
                assert record["per_layer"][name] == value, (record["workload"], name)


# -- a failed check reaches the exit code ----------------------------------------------


@pytest.fixture
def unpinned():
    before = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, before)


def test_dropped_packet_fails_the_run(monkeypatch, unpinned, capsys):
    import workloads

    depacketize = workloads.depacketize

    def lossy(packets, length=None):
        return depacketize(packets[:5] + packets[6:], length=length)

    monkeypatch.setattr(workloads, "depacketize", lossy)

    def in_process_child(workload, seed, extra):
        if "--setup-only" in extra:
            return {"setup_wall_s": 0.3}
        result = child.measure(workloads.WORKLOADS[workload](seed), 1, 0, None, False)
        return {**result, "setup_wall_s": 0.3}

    monkeypatch.setattr(run, "run_child", in_process_child)
    assert run.main(["--workload", "wire-1m", "--quick"]) == 1
    printed = capsys.readouterr().out
    assert "CHECK FAILED" in printed
    last = json.loads(printed.splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0
