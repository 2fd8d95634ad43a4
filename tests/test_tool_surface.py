"""Pins the surface of the tools after the trials that cut them.

Four tools remain: ``repro-resilience`` is ``repro-faults train`` and
``resume-check``, ``repro-report`` is ``repro-timeline report``, and
every scenario, plan or output file a command names is resolved by one
of the shared argparse types in ``repro.argtypes``.
``repro-lint`` is gone: its per-line rules are checks in
``tests/test_static_checks.py``, and what its taint rule guarded (bytes
that change between processes) is
``tests/test_same_bytes_across_processes.py``.  ``repro-bench``
regenerates the paper's figures and nothing else; the perf ledger is
the only gate.  Every codec, the multi-level one included, rides one
packetizer and one cut, and the cluster runs on a fat-tree only.  The
fault harness runs a preset on the dumbbell it names; the chaos
campaign is the one path that puts faults on a fat-tree, and its draw
ranges are constants.  Every
message crosses the simulator as a
``repro.transport.Transfer``, which builds the receiver its sender
names, and completion times and counts are read from the sender: no
flow log.  The metrics registry holds counters and nothing else: a
gauge or histogram copied a number a stats object, a sample list, an
INT record or a trace event already holds, and only the deleted
Prometheus exposition read it.  Gradients take one aggregation path:
each worker's message crosses the channel once and the receiver
averages, so there is no ring, no DDP bucketing, no modeled drop
baseline and no ``repro.baselines``, and error feedback keeps one
residual per worker.  Every gradient channel decodes what its wire
carries and counts that wire one way, so ``ChannelStats`` holds counts
and no estimate or timer.  The mechanisms deleted in those trials
(docs/static_analysis.md and docs/performance.md, "Trial record")
should not grow back unnoticed.
"""

import argparse
import dataclasses
import importlib.util
import inspect
import re
import subprocess
import tomllib
from pathlib import Path
from unittest import mock

import pytest

import repro.bench.__main__ as bench_cli
import repro.cluster.cli as cluster_cli
import repro.faults.cli as faults_cli
import repro.obs as obs
import repro.obs.timeline as timeline_cli
import repro.packet as packet
from repro.cluster import ClusterScenario
from repro.collectives import ChannelStats, CommHook, GradientChannel
from repro.core import GradientCodec, MultiLevelCodec, codec_by_name
from repro.faults import FaultInjector, run_scenario
from repro.faults.campaign import CampaignConfig
from repro.obs.int_telemetry import INTCollector
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, trace_to
from repro.packet import MultiLevelTrim
from repro.resilience import EFChannel
from repro.train import RoundTimeModel, TrainConfig
from repro.train.network_channel import NetworkChannel
from repro.transport import GoBackNSender, MessageSenderBase, PullSender, TrimmingSender

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"


def _parser(main):
    """The parser ``main`` builds, caught before it parses anything."""
    captured = {}

    def capture(parser, argv=None):
        captured["parser"] = parser
        raise SystemExit(0)

    with mock.patch.object(argparse.ArgumentParser, "parse_args", capture):
        with pytest.raises(SystemExit):
            main([])
    return captured["parser"]


def _parser_surface(main):
    """(option strings, positional dests, choices by dest) of ``main``'s parser."""
    actions = [
        action
        for action in _parser(main)._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    options = {opt for action in actions for opt in action.option_strings}
    positionals = {action.dest for action in actions if not action.option_strings}
    choices = {action.dest: set(action.choices) for action in actions if action.choices}
    return options, positionals, choices


def test_repro_bench_options_are_exactly_these():
    options, positionals, choices = _parser_surface(bench_cli.main)
    assert options == {"--scale", "--trace"}
    assert positionals == {"experiment"}
    assert choices == {
        "experiment": {"f2", "t2", "fig5", "t1", "fig3", "fig4", "all"},
        "scale": {"quick", "full"},
    }


def test_console_scripts_are_exactly_these():
    config = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert set(config["project"]["scripts"]) == {
        "repro-bench", "repro-cluster", "repro-faults", "repro-timeline",
    }


def _arguments(parser):
    """(prog, dest, type) of every argument that takes a value, in ``parser``
    and its subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _arguments(sub)
        elif action.nargs != 0:  # not a flag
            yield parser.prog, action.dest, action.type


def test_every_named_input_is_resolved_by_a_shared_type():
    from repro.argtypes import (
        campaign_kinds,
        campaign_monitor,
        campaign_plan,
        cluster_preset,
        cluster_scenario,
        fault_scenario,
        fault_transport,
        out_file,
    )

    shared = {
        fault_scenario, fault_transport, cluster_scenario, cluster_preset, campaign_plan,
        campaign_kinds, campaign_monitor, out_file,
    }
    named = {
        (prog, dest): kind
        for main in (bench_cli.main, cluster_cli.main, faults_cli.main, timeline_cli.main)
        for prog, dest, kind in _arguments(_parser(main))
        if kind in shared
        or dest in ("scenario", "name", "cluster", "plan", "out", "html", "kinds", "monitor")
    }
    assert named == {
        ("repro-cluster show", "scenario"): cluster_scenario,
        ("repro-cluster run", "scenario"): cluster_scenario,
        ("repro-cluster run", "out"): out_file,
        ("repro-faults run", "scenario"): fault_scenario,
        ("repro-faults run", "out"): out_file,
        ("repro-faults train", "scenario"): fault_scenario,
        ("repro-faults train", "out"): out_file,
        ("repro-faults resume-check", "scenario"): fault_scenario,
        ("repro-faults campaign run", "cluster"): cluster_preset,
        ("repro-faults campaign run", "kinds"): campaign_kinds,
        ("repro-faults campaign replay", "plan"): campaign_plan,
        ("repro-faults campaign replay", "out"): out_file,
        ("repro-faults campaign shrink", "plan"): campaign_plan,
        ("repro-faults campaign shrink", "monitor"): campaign_monitor,
        ("repro-timeline record", "scenario"): fault_scenario,
        ("repro-timeline record", "transport"): fault_transport,
        ("repro-timeline render", "html"): out_file,
    }


@pytest.mark.parametrize(
    "module",
    [
        "repro.lint",
        "repro.lint.cache",
        "repro.lint.sarif",
        "repro.lint.baseline",
        "repro.lint.flow_rules",
        "repro.bench.regression",
        "repro.net.trace",
        "repro.net.flow",
        "repro.obs.spans",
        "repro.obs.report",
        "repro.resilience.__main__",
        "repro.baselines",
        "repro.baselines.terngrad",
        "repro.baselines.topk",
        "repro.baselines.powersgd",
        "repro.collectives.ring",
    ],
)
def test_deleted_modules_stay_deleted(module):
    try:
        spec = importlib.util.find_spec(module)
    except ModuleNotFoundError:  # its package is gone as well
        spec = None
    assert spec is None


def test_tracer_has_no_rotation_parameters():
    # One recorder, one switch, two sinks: no rotation, no keep flags, no caps.
    assert list(inspect.signature(Tracer.__init__).parameters) == [
        "self", "enabled", "jsonl_path", "spans_path",
    ]
    assert list(inspect.signature(trace_to).parameters) == ["path", "spans_path"]


def test_sender_constructors_take_no_flow_log():
    # A sender's completion time is its ``fct_s`` and its counts its tally.
    assert list(inspect.signature(MessageSenderBase.__init__).parameters) == [
        "self", "host", "flow_id", "cc", "rto_min", "rto_max", "max_retries",
    ]
    own = {
        cls: [
            name
            for name, param in inspect.signature(cls.__init__).parameters.items()
            if param.kind is param.KEYWORD_ONLY
        ]
        for cls in (GoBackNSender, PullSender, TrimmingSender)
    }
    assert own == {GoBackNSender: ["dupack_threshold"], PullSender: ["initial_window"],
                   TrimmingSender: []}


def test_the_registry_holds_only_counters():
    assert not hasattr(MetricsRegistry, "gauge")
    assert not hasattr(MetricsRegistry, "histogram")
    for name in ("Gauge", "Histogram", "prometheus_text"):
        assert not hasattr(obs, name), name
        assert name not in obs.__all__, name


def test_gradient_carrier_and_int_collector_take_no_dead_knobs():
    # Both carriers send with one fixed window; the collector keeps no records.
    assert list(inspect.signature(NetworkChannel.__init__).parameters) == [
        "self", "network_factory", "codec", "src", "dst", "mtu", "deadline_s",
        "degraded_step", "max_retries",
    ]
    assert list(inspect.signature(INTCollector.__init__).parameters) == [
        "self", "enabled", "jsonl_path",
    ]


def test_one_aggregation_path_takes_no_dead_knobs():
    # No bucketing, no drop-rate clock, no training options only tests set.
    assert list(inspect.signature(CommHook.__init__).parameters) == [
        "self", "channel", "deadline",
    ]
    assert list(inspect.signature(RoundTimeModel.round_time).parameters) == [
        "self", "num_coords", "codec_name", "trim_rate", "world_size",
    ]
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "epochs", "batch_size", "lr", "momentum", "step_size", "gamma", "augment", "seed",
    ]
    # The cost model's calibration is module constants, not settable fields.
    assert list(inspect.signature(RoundTimeModel.__init__).parameters) == [
        "self", "codec_ns_per_coord",
    ]
    # One residual per worker: no in-round slots to reset.
    assert not hasattr(EFChannel, "end_round")


def test_channel_stats_count_the_wire_and_nothing_else():
    # No byte estimate, no wall-clock timers (they made checkpoints differ
    # run to run), no drop counter beside the one the wire count writes.
    assert [f.name for f in dataclasses.fields(ChannelStats)] == [
        "messages", "coordinates", "packets_total", "packets_trimmed",
        "packets_dropped", "bytes_sent", "rounds_surrendered",
    ]
    assert not hasattr(GradientChannel, "count_dropped")


def test_every_codec_rides_one_wire_path():
    # The multi-level code is a registered codec: no packetizer, depacketizer
    # or plane-width knob of its own, one cut on Packet.
    assert isinstance(codec_by_name("multilevel"), GradientCodec)
    assert not hasattr(MultiLevelCodec, "packetize")
    assert not hasattr(MultiLevelCodec, "depacketize")
    assert not hasattr(packet, "trim_to_bits") and "trim_to_bits" not in packet.__all__
    assert list(inspect.signature(MultiLevelTrim.__init__).parameters) == [
        "self", "level_bits", "thresholds",
    ]


def test_the_cluster_runs_on_one_fabric_shape():
    # A k-ary fat-tree: no topology switch, no leaf-spine sizes.
    assert [f.name for f in dataclasses.fields(ClusterScenario)] == [
        "name", "description", "jobs", "tenants", "k", "rate_bps", "delay_s",
        "buffer_bytes", "ecmp", "trim", "deadline_s", "mtu", "host_burst",
    ]


def test_the_fault_harness_runs_presets_on_their_dumbbell():
    # No topology switch, no tenant, no retry override beside the scenario's.
    assert list(inspect.signature(run_scenario).parameters) == [
        "scenario", "transport", "seed", "max_events", "instrument",
    ]


def test_the_fault_injector_takes_no_host_placement():
    # ``worker:<r>`` is host ``tx<r>``.
    assert list(inspect.signature(FaultInjector.__init__).parameters) == [
        "self", "network", "scenario", "root_seed",
    ]


def test_the_campaign_draws_from_constant_ranges():
    # Start window, dark time and rate ranges are module constants.
    assert [f.name for f in dataclasses.fields(CampaignConfig)] == [
        "cluster", "seed", "faults", "kinds", "ef", "check_determinism", "max_steps",
    ]


def test_receivers_are_built_only_by_the_transport():
    # Anything else puts its message on the wire through a Transfer.
    pattern = re.compile(r"\w+Receiver\(")
    offenders = [
        f"{path.relative_to(REPO_ROOT)}: {match.group(0)}"
        for top in ("src", "benchmarks", "examples")
        for path in sorted((REPO_ROOT / top).rglob("*.py"))
        if not path.is_relative_to(PACKAGE / "transport")
        for match in pattern.finditer(path.read_text(encoding="utf-8"))
    ]
    assert not offenders


def test_src_spawns_no_processes():
    pattern = re.compile(
        r"^\s*(import|from)\s+(concurrent\.futures|subprocess)\b", re.MULTILINE
    )
    offenders = [
        str(path.relative_to(REPO_ROOT))
        for path in sorted(PACKAGE.rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert not offenders


def test_no_run_outputs_are_tracked_under_benchmarks():
    try:
        listed = subprocess.run(
            ["git", "ls-files", "benchmarks"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    if not listed:
        pytest.skip("not a git checkout")
    assert not [name for name in listed if "results" in Path(name).name]
