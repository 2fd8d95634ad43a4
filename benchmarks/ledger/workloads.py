"""The five ledger workloads.

Each class builds its inputs from the seed in ``__init__`` (that is the
set-up time), runs one *unit* of fixed work per :meth:`unit` call, and
checks the unit's outputs.  A unit returns:

* ``counters`` — exact, seed-determined numbers read from public stats,
  keyed by the metric they feed.  Workloads whose units repeat the same
  inputs (``repeats = True``) must return identical counters every time;
* ``attempted`` / ``failed`` — operations, as ``fail_share`` defines them
  for the workload;
* ``problems`` — one line per failed output check.

Only public ``repro`` functions are called, closed loop, one client, no
threads of the benchmark's own (``ClusterDriver`` starts its job
threads itself).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from typing import Callable, ContextManager, Dict, List, Optional

import numpy as np

# Quiet the package's stdout loggers before it configures them.
os.environ.setdefault("REPRO_LOG_LEVEL", "WARNING")

from repro.cluster import ClusterDriver, cluster_scenario_by_name  # noqa: E402
from repro.collectives.hooks import AllReduceHook  # noqa: E402
from repro.core import codec_by_name, depacketize, nmse, packetize  # noqa: E402
from repro.faults.campaign import MONITORS, CampaignConfig, draw_plan, run_campaign  # noqa: E402
from repro.net.crosstraffic import CROSS_TRAFFIC_FLOW_BASE, IncastBurst, OnOffFlow  # noqa: E402
from repro.net.topology import dumbbell, fat_tree  # noqa: E402
from repro.nn.data import make_dataset  # noqa: E402
from repro.nn.models import MLP  # noqa: E402
from repro.packet import SingleLevelTrim  # noqa: E402
from repro.train.ddp import DDPTrainer, TrainConfig  # noqa: E402
from repro.train.network_channel import NetworkChannel  # noqa: E402

from spans import Tracer  # noqa: E402
from tracing import profile_network  # noqa: E402

__all__ = ["Unit", "Workload", "WORKLOADS", "release_packets"]

try:
    # The arena is on trial (ROADMAP): the ledger must still run on a
    # commit that removed it.
    from repro.packet import get_arena
except ImportError:  # pragma: no cover - depends on the commit measured
    get_arena = None


def release_packets(packets) -> None:
    """Give message packets back, as the transfer owner does after decode."""
    if get_arena is not None:
        get_arena().release_all(packets)


@dataclasses.dataclass
class Unit:
    counters: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]


class Workload:
    """Base: holds the seed and the (optional) tracer of the traced run."""

    name = ""
    warmups = 3
    #: Share of a unit that is interpreter-bound rather than streaming
    #: through numpy arrays: how the reference kernel's two parts are
    #: mixed into this workload's yardstick (measured, see README).
    interp_share = 1.0
    #: Units repeat the same inputs, so their counters must be equal.
    repeats = True
    #: The program runs job threads: spans measure per-thread CPU time.
    threaded = False

    def __init__(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.tracer = tracer
        #: Stage profilers of the networks built during the current unit.
        self.profilers: list = []

    #: Counter keys that legitimately differ between repeated units.
    varies: tuple = ()

    def unit(self, index: int) -> Unit:
        raise NotImplementedError

    def per_unit(self, timed: List[Unit]) -> Dict[str, float]:
        """Counters of one timed unit (they repeat, so any one will do)."""
        return dict(timed[-1].counters)

    def totals(self, units: List[Unit]) -> Dict[str, float]:
        """What two runs of the same (seed, unit count) must agree on exactly."""
        return {k: v for k, v in units[0].counters.items() if k not in self.varies}

    def outputs(self, units: List[Unit]) -> Dict[str, float]:
        """The exact end-to-end metrics this workload defines."""
        last = units[-1].counters
        out = {}
        if "wire_bytes" in last:
            out["wire_bytes_per_coord"] = last["wire_bytes"] / last["core.coords"]
        for key in ("nmse", "fct_us", "top1"):
            if key in last:
                out[key] = last[key]
        return out

    def span(self, name: str) -> ContextManager:
        """A span of the traced run; nothing in the untraced one."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def _traced_build(self, build: Callable):
        """``build()`` under a ``net.build`` span, with its event loop split."""
        with self.span("net.build"):
            network = build()
        if self.tracer is not None:
            profile_network(self.tracer, network, self.profilers)
        return network


# -- wire-1m ---------------------------------------------------------------------

#: NMSE of a unit-variance Gaussian gradient with half its packets
#: trimmed (EXPERIMENTS.md T2, 50 % row): sign 2(1-sqrt(2/pi))/2,
#: sq (L^2 - E[v^2])/2 and sd (L^2/3)/2 at L = 2.5 sigma, rht (pi/2-1)/2.
T2_HALF_TRIMMED = {"sign": 0.2021, "sq": 2.636, "sd": 1.045, "rht": 0.2854}
T2_BAND = 0.05


class Wire1M(Workload):
    """8 messages: {sign, sq, sd, rht} x {0 %, 50 % of data packets trimmed}.

    An operation is one message.  Every unit draws fresh message ids, as
    training rounds do, so each message pays one shared-randomness miss
    on encode and gets one hit on decode.
    """

    name = "wire-1m"
    interp_share = 0.3
    coords = 2**20
    codec_names = ("sign", "sq", "sd", "rht")
    varies = ("nmse",)  # fresh shared randomness per unit

    def __init__(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        super().__init__(seed, tracer)
        self.gradient = np.random.default_rng(seed).standard_normal(self.coords)
        self.codecs = [
            codec_by_name(name, root_seed=seed + 1, **({"row_size": 2**15} if name == "rht" else {}))
            for name in self.codec_names
        ]
        self._trim_rng_seed = seed + 2
        self._trimmed_slots: Optional[np.ndarray] = None

    def _slots_to_trim(self, packets: int) -> np.ndarray:
        # Slot 0 is the metadata packet; half of the data packets, the
        # same ones for every codec and unit.
        if self._trimmed_slots is None:
            order = np.random.default_rng(self._trim_rng_seed).permutation(packets - 1)
            self._trimmed_slots = np.sort(order[: (packets - 1) // 2]) + 1
        return self._trimmed_slots

    def unit(self, index: int) -> Unit:
        gradient = self.gradient
        wire_bytes = packets_made = failed = 0
        trimmed_nmse: Dict[str, float] = {}
        problems: List[str] = []
        message_id = 0
        for codec in self.codecs:
            for trim in (False, True):
                message_id += 1
                encoded = codec.encode(gradient, epoch=index, message_id=message_id)
                packets = packetize(encoded, src="tx", dst="rx", flow_id=1)
                wire_bytes += sum(p.wire_size for p in packets)
                packets_made += len(packets)
                received = list(packets)
                if trim:
                    for slot in self._slots_to_trim(len(packets)):
                        received[slot] = packets[slot].trim()
                message = depacketize(received)
                decoded = codec.decode(
                    message.to_encoded(), trimmed=message.trimmed, missing=message.missing
                )
                release_packets(packets)
                with self.span("bench.audit"):
                    error = self._audit(codec.name, trim, decoded)
                if isinstance(error, str):
                    failed += 1
                    problems.append(f"unit {index} {codec.name} trim={trim}: {error}")
                elif trim:
                    trimmed_nmse[codec.name] = error
        if len(trimmed_nmse) == 4 and not trimmed_nmse["rht"] < 0.5 * trimmed_nmse["sd"]:
            failed += 1
            problems.append(f"unit {index}: rht NMSE not well below sd's: {trimmed_nmse}")
        messages = 2 * len(self.codecs)
        return Unit(
            counters={
                "core.messages": messages,
                "core.coords": messages * self.coords,
                "packet.packets": packets_made,
                "wire_bytes": wire_bytes,
                "nmse": float(np.mean(list(trimmed_nmse.values()))) if trimmed_nmse else 0.0,
            },
            attempted=messages,
            failed=min(failed, messages),
            problems=problems,
        )

    def outputs(self, units: List[Unit]) -> Dict[str, float]:
        out = super().outputs(units)
        out["nmse"] = float(np.mean([unit.counters["nmse"] for unit in units]))
        return out

    def _audit(self, codec: str, trim: bool, decoded: np.ndarray):
        """NMSE of one decoded message, or what is wrong with it."""
        if decoded.shape != (self.coords,):
            return f"decoded shape {decoded.shape}"
        if not np.all(np.isfinite(decoded)):
            return "non-finite decode"
        error = nmse(self.gradient, decoded)
        if not trim:
            return error if error < 1e-12 else f"untrimmed NMSE {error:.3e}"
        centre = T2_HALF_TRIMMED[codec]
        if abs(error - centre) > T2_BAND * centre:
            return f"NMSE {error:.4f} outside T2 band {centre} +-{T2_BAND:.0%}"
        return error


# -- ddp-dumbbell ------------------------------------------------------------------


class DDPDumbbell(Workload):
    """One epoch (5 rounds x 4 workers) per unit over a congested dumbbell.

    Every transfer builds a fresh ``dumbbell(pairs=4, 10 Gb/s, 40 kB
    buffers, SingleLevelTrim)`` and fires a 3-sender 400 kB incast at the
    receiver, which trims ~46 % of the gradient packets.  An operation
    is one gradient transfer.  Epochs see new batches, so counters are
    whole-run totals rather than per-unit repeats.
    """

    name = "ddp-dumbbell"
    interp_share = 0.7
    repeats = False
    world_size = 4

    def __init__(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        super().__init__(seed, tracer)
        train_set, test_set = make_dataset(
            num_classes=100, train_per_class=13, test_per_class=4,
            image_size=16, noise=1.0, seed=seed,
        )
        self.model = MLP(768, [128], 100, seed=seed + 3)
        self.networks: list = []
        self.bursts: list = []
        self.channel = NetworkChannel(
            self._network,
            codec_by_name("rht", root_seed=seed + 1, row_size=4096),
            src="tx0",
            dst="rx0",
        )
        self._nmse_sum = 0.0
        self._bad_decodes = 0
        channel = self.channel

        def audited_transfer(flat, **key):
            # Looked up per call: the traced run wraps the class method
            # after this object is built.
            decoded = type(channel).transfer(channel, flat, **key)
            with self.span("bench.audit"):
                self._audit(flat, decoded)
            return decoded

        self.channel.transfer = audited_transfer
        self.trainer = DDPTrainer(
            self.model,
            train_set,
            test_set,
            world_size=self.world_size,
            hook=AllReduceHook(self.channel),
            config=TrainConfig(epochs=10_000, batch_size=64, lr=0.01, seed=seed),
        )
        self._first_loss: Optional[float] = None
        # "First fabric" is part of set-up; its packets never run.
        self._network()
        self.networks.clear()
        self.bursts.clear()
        self.profilers.clear()

    def _network(self):
        def build():
            network = dumbbell(
                pairs=4, edge_rate_bps=10e9, bottleneck_rate_bps=10e9,
                trim_policy=SingleLevelTrim(), buffer_bytes=40_000,
            )
            burst = IncastBurst(
                network.sim,
                [network.hosts[f"tx{i}"] for i in (1, 2, 3)],
                "rx0",
                burst_bytes=400_000,
                seed=self.seed,
            )
            burst.fire(0.0)
            self.bursts.append(burst)
            return network

        network = self._traced_build(build)
        self.networks.append(network)
        return network

    def _audit(self, flat: np.ndarray, decoded: np.ndarray) -> None:
        if decoded.shape != flat.shape or not np.all(np.isfinite(decoded)):
            self._bad_decodes += 1
        else:
            self._nmse_sum += nmse(flat, decoded)

    def unit(self, index: int) -> Unit:
        stats = self.channel.stats
        before = dataclasses.replace(stats)
        bad_before = self._bad_decodes
        self.networks.clear()
        self.bursts.clear()
        history = self.trainer.train(epochs=index + 1)
        record = history.records[-1]
        transfers = stats.messages - before.messages
        surrendered = stats.rounds_surrendered - before.rounds_surrendered
        problems: List[str] = []
        if len(history.records) != index + 1:
            problems.append(f"epoch {index + 1} did not complete")
        if surrendered:
            problems.append(f"epoch {index + 1}: {surrendered} transfers surrendered")
        if self._bad_decodes != bad_before:
            problems.append(f"epoch {index + 1}: malformed decode")
        if record.diverged:
            problems.append(f"epoch {index + 1} diverged")
        if self._first_loss is None:
            self._first_loss = record.train_loss
        elif not record.train_loss < self._first_loss:
            problems.append(
                f"epoch {index + 1} loss {record.train_loss:.4f} not below "
                f"first epoch's {self._first_loss:.4f}"
            )
        switches = [network.total_switch_stats() for network in self.networks]
        return Unit(
            counters={
                "nn.params": self.trainer.num_coords,
                "core.messages": transfers,
                "core.coords": stats.coordinates - before.coordinates,
                "packet.packets": stats.packets_total - before.packets_total + transfers,
                "packets_trimmed": stats.packets_trimmed - before.packets_trimmed,
                "train.rounds": transfers // self.world_size,
                "train.surrendered": surrendered,
                "net.events": sum(n.sim.events_processed for n in self.networks),
                "net.forwarded": sum(s["forwarded"] for s in switches),
                "net.trimmed": sum(s["trimmed"] for s in switches),
                "net.dropped": sum(s["dropped"] for s in switches),
                "net.tenant_packets": sum(b.packets_emitted for b in self.bursts),
                "wire_bytes": sum(n.hosts["tx0"].uplink.bytes_sent for n in self.networks),
                "nmse_sum": self._nmse_sum,
                "top1": record.top1,
            },
            attempted=transfers,
            failed=min(transfers, surrendered + self._bad_decodes - bad_before),
            problems=problems,
        )


    #: Counters that are not sums over transfers.
    _state_keys = ("nn.params", "nmse_sum", "top1")

    def per_unit(self, timed: List[Unit]) -> Dict[str, float]:
        out = dict(timed[-1].counters)
        for key in out:
            if key not in self._state_keys:
                out[key] = float(np.mean([unit.counters[key] for unit in timed]))
        return out

    def totals(self, units: List[Unit]) -> Dict[str, float]:
        out = dict(units[-1].counters)
        for key in out:
            if key not in self._state_keys:
                out[key] = sum(unit.counters[key] for unit in units)
        return out

    def outputs(self, units: List[Unit]) -> Dict[str, float]:
        totals = self.totals(units)
        return {
            "wire_bytes_per_coord": totals["wire_bytes"] / totals["core.coords"],
            "nmse": totals["nmse_sum"] / totals["core.messages"],
            "top1": totals["top1"],
        }


# -- fabric-tenants ----------------------------------------------------------------

#: The cross-pod pairs of benchmarks/test_fattree_sim.py: every packet
#: takes the full 5-hop edge-agg-core-agg-edge path.
FABRIC_PAIRS = (
    ("h0_0_0", "h2_1_1"),
    ("h0_0_1", "h3_0_0"),
    ("h0_1_0", "h2_0_1"),
    ("h1_0_0", "h3_1_1"),
    ("h1_1_1", "h2_0_0"),
    ("h2_1_0", "h0_0_1"),
    ("h3_0_1", "h1_1_0"),
    ("h3_1_0", "h0_1_1"),
)
FABRIC_FLOW_BASE = CROSS_TRAFFIC_FLOW_BASE + 900_000
#: Events one unit drains (~5.3 ms of simulated time, ~0.45 s of wall
#: time).  A fixed simulated window would make the work depend on the
#: seed: the on/off draws move the event count of 6 ms by +-4 %.
FABRIC_EVENTS = 320_000
#: Tenants keep sending well past the point the event budget is spent.
FABRIC_WINDOW_S = 8e-3


class FabricTenants(Workload):
    """A fresh k=4 ECMP fat-tree drained for a fixed number of events.

    Even tenants send 1458-byte packets, odd tenants 256-byte ones, all
    at 2.5 Gb/s on/off.  An operation is one tenant packet; it fails if
    a switch drops it (none should: the fabric is not oversubscribed).
    """

    name = "fabric-tenants"
    warmups = 8

    def __init__(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        super().__init__(seed, tracer)
        self._build()
        self.profilers.clear()

    def _build(self):
        return self._traced_build(
            lambda: fat_tree(k=4, rate_bps=10e9, ecmp=True, ecmp_seed=self.seed, host_burst=8)
        )

    def unit(self, index: int) -> Unit:
        network = self._build()
        flows = []
        for i, (src, dst) in enumerate(FABRIC_PAIRS):
            flow = OnOffFlow(
                network.sim,
                network.hosts[src],
                dst,
                rate_bps=2.5e9,
                burst_s=200e-6,
                idle_s=50e-6,
                packet_bytes=1458 if i % 2 == 0 else 256,
                seed=self.seed * len(FABRIC_PAIRS) + i,
                flow_id=FABRIC_FLOW_BASE + i,
                stop_at=FABRIC_WINDOW_S,
            )
            flow.start()
            flows.append(flow)
        network.sim.run(until=FABRIC_WINDOW_S, max_events=FABRIC_EVENTS)
        switches = network.total_switch_stats()
        emitted = sum(flow.packets_emitted for flow in flows)
        dropped = switches["dropped"]
        events = network.sim.events_processed
        problems = [f"unit {index}: {dropped} switch drops"] if dropped else []
        if events != FABRIC_EVENTS:
            problems.append(f"unit {index}: window ended after {events} of {FABRIC_EVENTS} events")
        return Unit(
            counters={
                "net.events": events,
                "net.forwarded": switches["forwarded"],
                "net.trimmed": switches["trimmed"],
                "net.dropped": dropped,
                "net.ecmp_collisions": sum(
                    s.stats.ecmp_collisions for s in network.switches.values()
                ),
                "net.tenant_packets": emitted,
            },
            attempted=emitted,
            failed=dropped,
            problems=problems,
        )


# -- cluster-incast / chaos-campaign ---------------------------------------------------


def _cluster_counters(report: dict, params: int) -> Dict[str, float]:
    """What both cluster workloads read from a ``ClusterDriver`` report."""
    jobs = list(report["jobs"].values())
    fabric = report["fabric"]
    messages = sum(job["rounds"] * job["workers"] for job in jobs)
    return {
        "nn.params": params,
        "core.messages": messages,
        "core.coords": messages * params,
        "packet.packets": sum(job["packets_total"] for job in jobs) + messages,
        "packets_trimmed": sum(job["packets_trimmed"] for job in jobs),
        "train.rounds": sum(job["rounds"] for job in jobs),
        "train.surrendered": sum(job["rounds_surrendered"] for job in jobs),
        "net.forwarded": fabric["forwarded"],
        "net.trimmed": fabric["trimmed"],
        "net.dropped": fabric["dropped"],
        "net.blackholed": fabric["blackhole_drops"],
        "net.reroutes": fabric["reroutes"],
        "net.ecmp_collisions": fabric["ecmp_collisions"],
        "net.tenant_packets": sum(t["packets_emitted"] for t in report["tenants"].values()),
        "cluster.waves": report["waves"],
        "cluster.jain": report["fairness"]["jain_goodput"],
        "wire_bytes": sum(job["bytes_delivered"] for job in jobs),
        "fct_us": float(np.mean([job["mean_fct_s"] for job in jobs])) * 1e6,
        "top1": float(np.mean([job["final_top1"] for job in jobs])),
    }


class ClusterIncast(Workload):
    """``ClusterDriver(incast-4job, seed).run()``, construction included.

    Four 2-worker jobs (12-packet messages) share a fat-tree with an
    incast tenant.  An operation is one job round; it fails when the
    round is surrendered or its job diverges.
    """

    name = "cluster-incast"
    threaded = True
    preset = "incast-4job"

    def __init__(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        super().__init__(seed, tracer)
        self.scenario = cluster_scenario_by_name(self.preset)
        ClusterDriver.build_network(self.scenario, seed=seed)

    def unit(self, index: int) -> Unit:
        driver = ClusterDriver(self.scenario, self.seed)
        report = driver.run()
        counters = _cluster_counters(report, driver.runtimes[0].trainer.num_coords)
        counters["net.events"] = driver.net.sim.events_processed
        jobs = report["jobs"]
        rounds = int(counters["train.rounds"])
        failed = sum(
            job["rounds"] if job["diverged"] else job["rounds_surrendered"]
            for job in jobs.values()
        )
        problems = [f"unit {index}: {name} diverged" for name, job in jobs.items() if job["diverged"]]
        if counters["train.surrendered"]:
            problems.append(f"unit {index}: {counters['train.surrendered']} rounds surrendered")
        return Unit(counters=counters, attempted=rounds, failed=failed, problems=problems)


class ChaosCampaign(Workload):
    """``run_campaign(draw_plan(CampaignConfig(elephant-2job, seed, faults=4)))``.

    The only workload with fault hooks, ECMP failover, INT and error
    feedback live.  An operation is one invariant monitor; it fails when
    the campaign reports the monitor violated.
    """

    name = "chaos-campaign"
    threaded = True

    def __init__(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        super().__init__(seed, tracer)
        self.config = CampaignConfig(cluster="elephant-2job", seed=seed, faults=4)
        # CampaignResult does not expose the model, so read its size once
        # from the driver the campaign will build.
        driver = ClusterDriver(cluster_scenario_by_name(self.config.cluster), seed)
        self.params = driver.runtimes[0].trainer.num_coords

    def unit(self, index: int) -> Unit:
        result = run_campaign(draw_plan(self.config))
        counters = _cluster_counters(result.report, self.params)
        jobs = result.report["jobs"].values()
        norms = [n for job in jobs for n in job.get("ef_residual_norms", {}).values()]
        counters.update(
            {
                "net.events": result.steps,
                "faults.events": len(result.fault_events),
                "faults.violations": len(result.violations),
                "resilience.ef_gap": max(job.get("ef_telescoping_gap", 0.0) for job in jobs),
                "resilience.ef_residual_norm": float(np.mean(norms)) if norms else 0.0,
                "obs.int_records": int(result.int_summary["records"]),
            }
        )
        violated = result.violated_monitors
        return Unit(
            counters=counters,
            attempted=len(MONITORS),
            failed=len(violated),
            problems=[f"unit {index}: {v.monitor}: {v.detail}" for v in result.violations],
        )


WORKLOADS = {
    cls.name: cls for cls in (Wire1M, DDPDumbbell, FabricTenants, ClusterIncast, ChaosCampaign)
}
