"""Names, units and directions of everything the ledger reports.

``BENCHMARK.json`` at the repo root is the contract other tools read;
this module is where its content is written down once, together with
what the JSON shape has no room for: which workloads a metric is
defined on, the bound of the per-seed exact metrics, and — for every
layer metric — which end-to-end number it is expected to move
(``moves``).  ``test_ledger.py`` checks the two agree.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

__all__ = [
    "WORKLOADS",
    "EndToEnd",
    "END_TO_END",
    "GATED",
    "Layer",
    "PER_LAYER",
    "benchmark_json",
]

RUN_SECONDS = 10

#: name -> why it exists (one line each; the README has the long form).
WORKLOADS: Dict[str, str] = {
    "wire-1m": (
        "gradient byte path with no network: 4 codecs x {0,50}% trimmed packets "
        "on a 2^20-coord message, so core/packet/transforms do all the work"
    ),
    "ddp-dumbbell": (
        "a 4-worker DDP epoch over a congested trimming dumbbell: nn, codec, "
        "transport, switch trim path and optimizer at once, 315-packet messages"
    ),
    "fabric-tenants": (
        "bare ECMP fat-tree forwarding of 1458- and 256-byte tenant packets: "
        "simulator, switch, link and generators only, no codec and no loss"
    ),
    "cluster-incast": (
        "the threaded multi-tenant ClusterDriver as users run it: 12-packet "
        "messages, incast drops, per-wave overhead dominates the codec"
    ),
    "chaos-campaign": (
        "a seeded 4-fault campaign over elephant+mice tenants: fault hooks, "
        "ECMP failover, INT stamping and error feedback all live"
    ),
}

ALL = tuple(WORKLOADS)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Allowed worsening: a share of the parent's median, except
    #: ``absolute=True`` (a difference).
    bound: float
    workloads: Tuple[str, ...]
    definition: str
    absolute: bool = False


#: The eight end-to-end metrics.  The first three are timings/memory,
#: defined on every workload and gated by the driver (``GATED``); the
#: rest are exact per seed and defined only where listed.
END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "unit_s", "s", "lower", 0.20, ALL,
        "median host-normalised wall time of one unit",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25, ALL,
        "process start until inputs are built (imports, data, model, codec, "
        "first fabric), host-normalised, median over repeated set-ups",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.15, ALL,
        "ru_maxrss of the untraced child at exit",
    ),
    EndToEnd(
        "fail_share", "ratio", "lower", 0.0, ALL,
        "failed / attempted operations (see each workload for what an operation is)",
        absolute=True,
    ),
    EndToEnd(
        "nmse", "ratio", "lower", 1e-6, ("wire-1m", "ddp-dumbbell"),
        "mean NMSE of decoded vs original gradient (trimmed messages / all transfers)",
    ),
    EndToEnd(
        "wire_bytes_per_coord", "bytes", "lower", 1e-6,
        ("wire-1m", "ddp-dumbbell", "cluster-incast", "chaos-campaign"),
        "bytes put on the wire (headers, INT band, retransmits) per coordinate aggregated",
    ),
    EndToEnd(
        "fct_us", "us", "lower", 1e-6, ("cluster-incast", "chaos-campaign"),
        "mean over jobs of the cluster report's mean_fct_s (simulated clock)",
    ),
    EndToEnd(
        "top1", "ratio", "higher", 0.02, ("ddp-dumbbell", "cluster-incast", "chaos-campaign"),
        "final test top-1 after the fixed number of epochs (mean over jobs)",
        absolute=True,
    ),
]

#: What BENCHMARK.json lists under ``end_to_end``: its shape wants every
#: such metric on every workload and never 0, which only these meet.
GATED = ("unit_s", "setup_s", "peak_rss_mb")


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    #: Span names whose self time this metric sums (``_s`` metrics only).
    spans: Tuple[str, ...] = ()


_BYTES = "unit_s on wire-1m (~50% of a unit); no change on fabric-tenants, <2% on cluster-incast"
_CODEC = (
    "unit_s on wire-1m (~35%; RHT alone ~37% of a unit) and ddp-dumbbell (~5%); "
    "nmse must not move; no change on fabric-tenants, chaos-campaign"
)
_NN = (
    "unit_s on ddp-dumbbell (~20%) and cluster-incast (job threads); top1 must not move; "
    "no change on wire-1m, fabric-tenants"
)
_NET = (
    "unit_s on fabric-tenants (~85%), chaos-campaign (~80%), cluster-incast (~35%), "
    "ddp-dumbbell (~25%); fct_us and net.events must stay exact; no change on wire-1m"
)
_TENANTS = (
    "unit_s on fabric-tenants and chaos-campaign; <1% on ddp-dumbbell, no change on wire-1m"
)
_ARENA = (
    "unit_s and peak_rss_mb on fabric-tenants (transient kind) and ddp-dumbbell (message kind)"
)
_TRANSPORT = (
    "unit_s, fct_us, wire_bytes_per_coord on ddp-dumbbell (~7%) and cluster-incast; "
    "no change on fabric-tenants, wire-1m"
)
_GLUE = (
    "unit_s on cluster-incast (driver/threads) and ddp-dumbbell (channel); "
    "no change on fabric-tenants, wire-1m"
)
_FAULTS = (
    "fail_share, top1, fct_us on chaos-campaign only (faults.sim_s <1% today, so a "
    "faults-layer speed-up predicts no unit_s change)"
)
_OBS = (
    "unit_s, wire_bytes_per_coord on chaos-campaign (INT on); no change on fabric-tenants (INT off)"
)
_TRIM = "nmse, top1, wire_bytes_per_coord on ddp-dumbbell; 0 on fabric-tenants"
_BENCH = "nothing: describes the measurement, not the program"
_EXACT = "an end-to-end output, exact per seed; listed here because it is not defined on every workload"


def _s(name: str, moves: str, *spans: str) -> Layer:
    return Layer(name, "s", "lower", moves, spans)


def _count(name: str, moves: str, better: str = "lower", unit: str = "count") -> Layer:
    return Layer(name, unit, better, moves)


PER_LAYER: List[Layer] = [
    _s("nn.fwd_bwd_s", _NN, "nn.forward", "nn.loss", "nn.backward", "nn.grad"),
    _s("nn.optim_s", _NN, "nn.optim"),
    _s("nn.eval_s", _NN, "nn.eval"),
    _s("nn.data_s", _NN, "nn.data"),
    _count("nn.params", _NN),
    _s("core.encode_s", _CODEC, "core.encode.sign", "core.encode.sq", "core.encode.sd", "core.encode.rht"),
    _s("core.decode_s", _CODEC, "core.decode.sign", "core.decode.sq", "core.decode.sd", "core.decode.rht"),
    _s("core.packetize_s", _BYTES, "core.packetize"),
    _s("core.depacketize_s", _BYTES, "core.depacketize"),
    _s("core.depacketize_trimmed_s", _BYTES, "core.depacketize_trimmed"),
    _s("core.codec_sign_s", _CODEC, "core.encode.sign", "core.decode.sign"),
    _s("core.codec_sq_s", _CODEC, "core.encode.sq", "core.decode.sq"),
    _s("core.codec_sd_s", _CODEC, "core.encode.sd", "core.decode.sd"),
    _s("core.codec_rht_s", _CODEC, "core.encode.rht", "core.decode.rht"),
    _count("core.coords", _CODEC),
    _count("core.messages", _CODEC),
    _s("transforms.fwht_s", _CODEC, "transforms.fwht"),
    _s("transforms.prng_s", _CODEC, "transforms.prng"),
    _count("transforms.cache_hit_share", _CODEC, "higher", "ratio"),
    _s("packet.bitpack_s", _BYTES, "packet.bitpack"),
    _s("packet.trim_s", _BYTES, "packet.trim", "packet.trim@sim"),
    _count("packet.packets", _BYTES),
    _count("packet.arena_acquired", _ARENA),
    _count("packet.arena_reuse_share", _ARENA, "higher", "ratio"),
    _s("collectives.aggregate_s", _GLUE, "collectives.aggregate"),
    _s("train.transfer_s", _GLUE, "train.transfer"),
    _count("train.rounds", _GLUE),
    _count("train.trim_share", _TRIM, "lower", "ratio"),
    _count("train.surrendered", _TRIM),
    _s("transport.send_s", _TRANSPORT, "transport.send"),
    _s("transport.sim_s", _TRANSPORT, "sim.transport"),
    _count("transport.retransmits", _TRANSPORT),
    _s("net.build_s", _NET, "net.build"),
    _s(
        "net.sim_run_s", _NET,
        "net.sim_run", "sim.switch", "sim.link", "sim.tenants", "sim.transport",
        "sim.telemetry", "sim.faults", "sim.other", "packet.trim@sim", "obs.int@sim",
    ),
    _s("net.dispatch_s", _NET, "net.sim_run"),
    _s("net.switch_s", _NET, "sim.switch"),
    _s("net.link_s", _NET, "sim.link"),
    _s("net.tenants_s", _TENANTS, "sim.tenants"),
    _count("net.events", _NET),
    _count("net.us_per_event", _NET, "lower", "us"),
    _count("net.forwarded", _NET),
    _count("net.trimmed", _TRIM),
    _count("net.dropped", _TRIM),
    _count("net.blackholed", _FAULTS),
    _count("net.reroutes", _FAULTS),
    _count("net.ecmp_collisions", _NET),
    _count("net.tenant_packets", _TENANTS),
    _count("net.modeled_s", _NET, "lower", "s"),
    _s("cluster.build_s", _GLUE, "cluster.build"),
    _s("cluster.driver_s", _GLUE, "cluster.driver"),
    _count("cluster.waves", _GLUE),
    _count("cluster.jain", _GLUE, "higher", "ratio"),
    _s("faults.plan_s", _FAULTS, "faults.plan"),
    _s("faults.sim_s", _FAULTS, "sim.faults", "faults.campaign"),
    _count("faults.events", _FAULTS),
    _count("faults.violations", _FAULTS),
    _count("resilience.ef_gap", _FAULTS, "lower", "ratio"),
    _count("resilience.ef_residual_norm", _FAULTS, "lower", "l2"),
    _s("obs.telemetry_s", _OBS, "sim.telemetry", "obs.int", "obs.int@sim"),
    _count("obs.int_records", _OBS),
    _count("obs.metric_series", _OBS),
    _count("bench.reps", _BENCH, "higher"),
    _count("bench.unit_raw_s", _BENCH, "lower", "s"),
    _count("bench.unit_iqr", _BENCH, "lower", "ratio"),
    _count("bench.ref_s", _BENCH, "lower", "s"),
    _count("bench.ref_spread", _BENCH, "lower", "ratio"),
    _count("bench.trace_overhead", _BENCH, "lower", "ratio"),
    _count("bench.unattributed_share", _BENCH, "lower", "ratio"),
] + [
    Layer(e.name, e.unit, e.better, _EXACT) for e in END_TO_END if e.name not in GATED
]


def benchmark_json() -> dict:
    """The content BENCHMARK.json must have."""
    gated = [e for e in END_TO_END if e.name in GATED]
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": e.name, "unit": e.unit, "better": e.better, "bound": e.bound}
            for e in gated
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
