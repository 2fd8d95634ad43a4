"""Multi-tenant cluster driver: concurrent jobs on one shared fabric.

:class:`ClusterDriver` runs N :class:`~repro.train.ddp.DDPTrainer` jobs
*concurrently* on a single simulated fat-tree while background tenants
load the same links.  Concurrency is simulated, not executed: one
thread drives every job's resumable trainer
(:meth:`~repro.train.ddp.DDPTrainer.rounds`) in waves —

* advance each live job, in fixed job order, to the point where its
  round's gradients are ready, and encode them;
* packetize all of those gradient messages in one pass, launch them at
  the same simulation instant on the shared network (per-flow ECMP
  spreads them across the fabric), run the event loop to the instant
  the last of them is delivered or surrendered — or to the deadline,
  whichever comes first — and depacketize what arrived in one pass;
* complete each job in the same order — decode its messages, hand the
  aggregate back to its trainer — which carries it to its next round.

The wire layer works a wave at a time because a cluster message is
small (12 data packets): one ``packetize`` / ``depacketize`` call a
message is mostly fixed cost, which the wave's one pass pays once.

Nothing runs beside anything else, so there is no schedule to vary: a
``(scenario, seed)`` pair produces byte-identical reports by
construction, and a job that raises leaves :meth:`ClusterDriver.run`
with its own traceback.

Attribution: every switch gets a ``flow_classifier`` that buckets trim
and drop verdicts by flow-id range — jobs own blocks above
:data:`JOB_FLOW_BASE`, tenants own blocks above
:data:`~repro.net.crosstraffic.CROSS_TRAFFIC_FLOW_BASE` — so the report
can say *whose* packets the fabric cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..collectives.channel import PerfectChannel
from ..collectives.hooks import CommHook
from ..core.codec import GradientCodec, codec_by_name
from ..core.packetizer import Outgoing, depacketize_many, packetize_many
from ..net.crosstraffic import CROSS_TRAFFIC_FLOW_BASE
from ..net.topology import Network, fat_tree
from ..nn.data import make_dataset
from ..nn.models import MLP
from ..obs.trace import get_tracer
from ..packet.packet import Packet
from ..packet.trim import SingleLevelTrim
from ..resilience.ef import EFChannel
from ..train.ddp import DDPTrainer, TrainConfig
from ..train.network_channel import _GradientTransfer
from .scenario import ClusterScenario, JobSpec
from .tenants import TENANT_FLOW_BLOCK, TenantWorkload, tenant_flow_base

__all__ = ["JOB_FLOW_BASE", "JOB_FLOW_BLOCK", "FabricHook", "ClusterDriver"]

#: Training flows live in per-job blocks well clear of the transport
#: test range and below the cross-traffic space.
JOB_FLOW_BASE = 200_000
JOB_FLOW_BLOCK = 10_000


# -- placement -----------------------------------------------------------------


class HostAllocator:
    """Deterministic host placement over the topology's pods."""

    def __init__(self, pods: List[List[str]]) -> None:
        self.pods = [list(pod) for pod in pods]
        self._free = [list(pod) for pod in pods]

    def take(self, pod: int) -> str:
        """Claim the next free host in ``pod``."""
        pod %= len(self._free)
        if not self._free[pod]:
            raise ValueError(f"no free host left in pod {pod}")
        return self._free[pod].pop(0)

    def take_outside(self, pod: int, count: int) -> List[str]:
        """Claim ``count`` hosts round-robin from every other pod."""
        taken: List[str] = []
        order = [p for p in range(len(self._free)) if p != pod % len(self._free)]
        while len(taken) < count:
            progressed = False
            for p in order:
                if len(taken) >= count:
                    break
                if self._free[p]:
                    taken.append(self._free[p].pop(0))
                    progressed = True
            if not progressed:
                raise ValueError(
                    f"need {count} hosts outside pod {pod}, "
                    f"only {len(taken)} available"
                )
        return taken

    def free_in(self, pod: int) -> int:
        return len(self._free[pod % len(self._free)])


def topology_pods(scenario: ClusterScenario) -> List[List[str]]:
    """The fat-tree's host names grouped by pod."""
    half = scenario.k // 2
    return [
        [f"h{pod}_{e}_{i}" for e in range(half) for i in range(half)]
        for pod in range(scenario.k)
    ]


@dataclass(frozen=True)
class JobPlacement:
    """Where one job's endpoints live on the fabric."""

    aggregator: str
    workers: Tuple[str, ...]


def place_jobs(
    scenario: ClusterScenario, allocator: HostAllocator
) -> List[JobPlacement]:
    """Spread each job's aggregator and workers across pods.

    Job ``j`` aggregates in pod ``j % P`` and worker ``w`` computes in
    pod ``(j + 1 + w) % P``, so every gradient flow crosses the fabric
    core — the contention the multi-tenant scenarios study.
    """
    pods = scenario.k
    placements = []
    for j, job in enumerate(scenario.jobs):
        aggregator = allocator.take(j % pods)
        workers = tuple(
            allocator.take((j + 1 + w) % pods) for w in range(job.workers)
        )
        placements.append(JobPlacement(aggregator=aggregator, workers=workers))
    return placements


# -- one job on the fabric -----------------------------------------------------


@dataclass
class _JobRuntime:
    """Driver-side state for one job."""

    spec: JobSpec
    placement: JobPlacement
    trainer: Any
    hook: "FabricHook"
    stepper: Optional[Generator] = None
    #: The open round the trainer is suspended in — ``(grads, epoch,
    #: train.round span id)`` — or None once it has finished training.
    request: Optional[Tuple[List[np.ndarray], int, Optional[int]]] = None


class FabricHook(CommHook):
    """A CommHook whose aggregation rides the shared cluster fabric.

    Mirrors :func:`~repro.collectives.hooks.allreduce_mean` exactly —
    one message id per round, every worker's gradient crossing once,
    ``np.mean`` over what arrives — so a single job on an idle fabric
    reproduces the in-memory baseline bit for bit.  A transfer that
    surrenders or misses the wave deadline contributes a zero gradient
    (a degraded step), which is what keeps a job alive when a tenant
    storms the core.

    The aggregation is split in two because other jobs share the wave:
    :meth:`launch` encodes the round's messages, the driver packetizes
    and starts the wave's messages together, runs the event loop and
    depacketizes what they delivered together, and :meth:`complete`
    decodes this job's messages and returns the mean.  With ``ef`` the
    channel is an :class:`~repro.resilience.ef.EFChannel` and each half
    calls the matching half of its ``transfer``.
    """

    def __init__(
        self,
        driver: "ClusterDriver",
        job_index: int,
        codec: GradientCodec,
        ef: bool = False,
    ) -> None:
        # The inner channel never carries anything (the fabric does); it
        # is the ChannelStats holder the in-memory hooks have too.
        label = driver.scenario.jobs[job_index].name
        super().__init__(EFChannel(PerfectChannel(), label=label) if ef else None)
        self.driver = driver
        self.job_index = job_index
        self.codec = codec
        self.ef = ef
        #: (epoch, fabric time at wave end) per round — the driver's
        #: source for per-job time-to-accuracy on the shared clock.
        self.wave_log: List[Tuple[int, float]] = []
        #: Completion time of every delivered message.
        self.fcts: List[float] = []
        # The wave in flight: its (epoch, message id), the round span its
        # transfers start in, the encoded messages the driver has yet to
        # packetize, and per worker the transfer and the (input, carry)
        # it was built from.
        self._wave: Tuple[int, int] = (0, 0)
        self._span: Optional[int] = None
        self._outgoing: List[Outgoing] = []
        self._in_flight: List[_GradientTransfer] = []
        self._carried: List[Tuple[np.ndarray, np.ndarray]] = []
        # Running per-worker sums the telescoping monitor checks the EF
        # channel's residuals against.
        self._ef_input_sum: Dict[int, np.ndarray] = {}
        self._ef_delivered_sum: Dict[int, np.ndarray] = {}

    def _flow_id(self, worker: int) -> int:
        # Fresh ids every wave so a packet straggling past the deadline
        # can never be mistaken for the next round's data.
        base = JOB_FLOW_BASE + self.job_index * JOB_FLOW_BLOCK
        workers = len(self.driver.runtimes[self.job_index].placement.workers)
        return base + (len(self.wave_log) * workers + worker) % JOB_FLOW_BLOCK

    def launch(self, grads: List[np.ndarray], epoch: int, span: Optional[int] = None) -> None:
        """Encode every worker's gradient message for the next wave.

        The driver packetizes the wave's messages together and starts
        them (in ``span``, the job's round) at the wave's first instant.
        """
        message_id = self.next_message_id()
        self._wave = (epoch, message_id)
        self._span = span
        placement = self.driver.runtimes[self.job_index].placement
        for worker, grad in enumerate(grads):
            flat = np.asarray(grad, dtype=np.float64)
            # Error feedback: what the fabric lost last round rides
            # along with this round's gradient.
            carry = self.channel.carry(flat, worker) if self.ef else flat
            self._carried.append((flat, carry))
            self._outgoing.append(
                (
                    self.codec.encode(carry, epoch=epoch, message_id=message_id),
                    placement.workers[worker],
                    placement.aggregator,
                    self._flow_id(worker),
                )
            )

    def _start(self, wires: List[List[Packet]], settled: Callable[..., None]) -> None:
        """Put the packetized messages of :meth:`launch` on the fabric, now."""
        for (enc, *_), packets in zip(self._outgoing, wires):
            self._in_flight.append(
                _GradientTransfer(
                    self.driver.net,
                    self.codec,
                    packets,
                    coords=enc.metadata.original_length,
                )
            )
        self._outgoing = []
        with get_tracer().context(self._span):
            for transfer in self._in_flight:
                transfer.start(settled)

    def complete(self) -> np.ndarray:
        """Close the wave in flight; returns the mean of what arrived."""
        epoch, message_id = self._wave
        self.wave_log.append((epoch, self.driver.net.sim.now))
        received: List[np.ndarray] = []
        for worker, (transfer, (flat, carry)) in enumerate(
            zip(self._in_flight, self._carried)
        ):
            delivered = transfer.finish(self.stats)
            if delivered is None:
                self.channel.count_surrender()
                delivered = np.zeros_like(flat)
            else:
                self.fcts.append(transfer.fct_s)
            if self.ef:
                self.channel.settle(
                    carry,
                    delivered,
                    epoch=epoch,
                    message_id=message_id,
                    worker=worker,
                )
                self._ef_input_sum[worker] = (
                    self._ef_input_sum.get(worker, 0.0) + flat
                )
                self._ef_delivered_sum[worker] = (
                    self._ef_delivered_sum.get(worker, 0.0) + delivered
                )
            received.append(delivered)
        self._in_flight, self._carried = [], []
        return np.mean(received, axis=0)

    # -- error-feedback introspection -------------------------------------------

    def ef_telescoping_gap(self) -> float:
        """Max relative telescoping error across workers (0 when EF off).

        For each worker the DGC invariant says ``sum(delivered) +
        residual == sum(inputs)`` exactly in real arithmetic; in
        float64 the gap is rounding noise.  Anything materially larger
        means gradient mass was silently created or destroyed — the
        chaos campaign's EF monitor alarms on it.
        """
        worst = 0.0
        for worker, total_in in self._ef_input_sum.items():
            reconstructed = self._ef_delivered_sum[worker] + self.channel.residual(
                worker
            )
            gap = float(np.max(np.abs(total_in - reconstructed)))
            scale = 1.0 + float(np.max(np.abs(total_in)))
            worst = max(worst, gap / scale)
        return worst


# -- the driver ----------------------------------------------------------------


class ClusterDriver:
    """Build the fabric, place everyone, run all jobs to completion.

    Args:
        scenario: the declarative cluster description.
        seed: the run seed — drives job data/models/codecs, tenant
            traffic and the fabric's ECMP salt.
        target_top1: accuracy threshold for per-job time-to-accuracy.
    """

    def __init__(
        self, scenario: ClusterScenario, seed: int = 0, target_top1: float = 0.5
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.target_top1 = target_top1
        self.net = self._build_network()
        allocator = HostAllocator(topology_pods(scenario))
        placements = place_jobs(scenario, allocator)
        self.runtimes: List[_JobRuntime] = [
            self._build_job(index, spec, placement)
            for index, (spec, placement) in enumerate(
                zip(scenario.jobs, placements)
            )
        ]
        self.tenants: List[TenantWorkload] = [
            self._build_tenant(index, allocator)
            for index in range(len(scenario.tenants))
        ]
        #: owner -> {"trim": n, "drop": n} switch verdict attribution.
        self.attribution: Dict[str, Dict[str, int]] = {}
        for switch in self.net.switches.values():
            switch.flow_classifier = self._classify
        self.waves_run = 0
        # Transfers of the wave being run that are neither delivered nor
        # surrendered yet.
        self._unsettled = 0
        self._ran = False

    # -- construction ----------------------------------------------------------

    @staticmethod
    def build_network(scenario: ClusterScenario, seed: int = 0) -> Network:
        """The fabric a ``(scenario, seed)`` pair runs on.

        Exposed so harnesses that only need the topology — the chaos
        campaign's target enumeration, placement studies — can build
        the exact same fabric without paying for job construction.
        """
        return fat_tree(
            k=scenario.k,
            rate_bps=scenario.rate_bps,
            delay_s=scenario.delay_s,
            trim_policy=SingleLevelTrim() if scenario.trim else None,
            buffer_bytes=scenario.buffer_bytes,
            ecmp=scenario.ecmp,
            ecmp_seed=seed,
            host_burst=scenario.host_burst,
        )

    def _build_network(self) -> Network:
        return self.build_network(self.scenario, seed=self.seed)

    def _build_job(
        self, index: int, spec: JobSpec, placement: JobPlacement
    ) -> _JobRuntime:
        offset = spec.seed_offset if spec.seed_offset is not None else index
        job_seed = self.seed + offset
        train_set, test_set = make_dataset(
            num_classes=8,
            train_per_class=16,
            test_per_class=8,
            image_size=8,
            noise=1.0,
            seed=job_seed,
        )
        model = MLP(192, [spec.hidden], 8, seed=job_seed + 3)
        codec = codec_by_name(
            "rht", root_seed=job_seed + 1, row_size=spec.row_size
        )
        hook = FabricHook(driver=self, job_index=index, codec=codec, ef=spec.ef)
        trainer = DDPTrainer(
            model,
            train_set,
            test_set,
            world_size=spec.workers,
            hook=hook,
            config=TrainConfig(
                epochs=spec.epochs,
                batch_size=spec.batch_size,
                lr=spec.lr,
                seed=job_seed,
                augment=True,
            ),
            label=spec.name,
        )
        return _JobRuntime(
            spec=spec, placement=placement, trainer=trainer, hook=hook
        )

    def _build_tenant(self, index: int, allocator: HostAllocator) -> TenantWorkload:
        spec = self.scenario.tenants[index]
        if spec.pattern == "incast":
            dst_hosts = [allocator.take(spec.dst_pod)]
            src_hosts = allocator.take_outside(spec.dst_pod, spec.flows)
        else:
            receivers = max(1, min(spec.flows, allocator.free_in(spec.dst_pod)))
            dst_hosts = [allocator.take(spec.dst_pod) for _ in range(receivers)]
            src_hosts = allocator.take_outside(spec.dst_pod, spec.flows)
        return TenantWorkload(
            self.net,
            spec,
            tenant_index=index,
            seed=self.seed,
            src_hosts=src_hosts,
            dst_hosts=dst_hosts,
        )

    # -- attribution ------------------------------------------------------------

    def _owner_of(self, flow_id: int) -> str:
        if flow_id >= CROSS_TRAFFIC_FLOW_BASE:
            index = (flow_id - CROSS_TRAFFIC_FLOW_BASE) // TENANT_FLOW_BLOCK - 1
            if 0 <= index < len(self.scenario.tenants):
                return self.scenario.tenants[index].name
            return "other"
        if flow_id >= JOB_FLOW_BASE:
            index = (flow_id - JOB_FLOW_BASE) // JOB_FLOW_BLOCK
            if index < len(self.scenario.jobs):
                return self.scenario.jobs[index].name
        return "other"

    def _classify(self, flow_id: int, verdict: str, kind: str) -> None:
        owner = self.attribution.setdefault(
            self._owner_of(flow_id), {"trim": 0, "drop": 0}
        )
        owner[verdict] = owner.get(verdict, 0) + 1

    # -- wave engine ------------------------------------------------------------

    def _run_wave(self, hooks: List[FabricHook]) -> None:
        """Run one wave of what ``hooks`` launched: packetize every
        message at once, start them in job order, run the fabric to the
        instant the last transfer is terminal (or to the deadline), then
        depacketize everything delivered at once."""
        sim = self.net.sim
        wires = iter(
            packetize_many(
                [message for hook in hooks for message in hook._outgoing], mtu=self.scenario.mtu
            )
        )
        settled = partial(self._transfer_settled, self.waves_run)
        for hook in hooks:
            hook._start([next(wires) for _ in hook._outgoing], settled)
        # Nothing settles before the loop runs: a sender hears of its
        # message's fate from an ACK or a timer, both events.
        self._unsettled = sum(len(hook._in_flight) for hook in hooks)
        if self._unsettled:
            sim.run(until=sim.now + self.scenario.deadline_s)
        self.waves_run += 1
        delivered = [
            transfer
            for hook in hooks
            for transfer in hook._in_flight
            if transfer.wire is not None
        ]
        for transfer, message in zip(
            delivered, depacketize_many([transfer.wire for transfer in delivered])
        ):
            transfer.received = message

    def _transfer_settled(self, wave: int, _surrender: object = None) -> None:
        """A sender launched in ``wave`` delivered its message or gave up."""
        # A sender the deadline cut off belongs to no count any more.
        if wave == self.waves_run:
            self._unsettled -= 1
            if not self._unsettled:
                self.net.sim.stop()

    def run(self) -> Dict[str, Any]:
        """Train every job to completion; returns the JSON-ready report."""
        if self._ran:
            raise RuntimeError("a ClusterDriver instance runs once")
        self._ran = True
        for tenant in self.tenants:
            tenant.install()
        for runtime in self.runtimes:
            runtime.stepper = runtime.trainer.rounds()
            runtime.request = next(runtime.stepper, None)
        while live := [r for r in self.runtimes if r.request is not None]:
            for runtime in live:  # fixed job order => deterministic
                runtime.hook.launch(*runtime.request)
            self._run_wave([runtime.hook for runtime in live])
            for runtime in live:
                try:
                    runtime.request = runtime.stepper.send(runtime.hook.complete())
                except StopIteration:
                    runtime.request = None
        for tenant in self.tenants:
            tenant.stop()
        return self.report()

    # -- reporting --------------------------------------------------------------

    def _job_report(self, runtime: _JobRuntime) -> Dict[str, Any]:
        history = runtime.trainer.history
        stats = runtime.hook.stats
        epoch_end: Dict[int, float] = {}
        for epoch, end_s in runtime.hook.wave_log:
            epoch_end[epoch] = max(epoch_end.get(epoch, 0.0), end_s)
        tta: Optional[float] = None
        for record in history.records:
            if record.top1 >= self.target_top1:
                tta = epoch_end.get(record.epoch)
                break
        report: Dict[str, Any] = {
            "workers": runtime.spec.workers,
            "aggregator": runtime.placement.aggregator,
            "worker_hosts": list(runtime.placement.workers),
            "epochs": len(history.records),
            "rounds": len(runtime.hook.wave_log),
            "final_top1": history.final_top1,
            "best_top1": history.best_top1,
            "diverged": history.diverged,
            "trim_fraction": stats.trim_fraction,
            "packets_total": stats.packets_total,
            "packets_trimmed": stats.packets_trimmed,
            "bytes_delivered": stats.bytes_sent,
            "rounds_surrendered": stats.rounds_surrendered,
            "mean_fct_s": (
                float(np.mean(runtime.hook.fcts)) if runtime.hook.fcts else 0.0
            ),
            "time_to_accuracy_s": tta,
            "epoch_fabric_end_s": [
                epoch_end.get(r.epoch) for r in history.records
            ],
            "top1_curve": [r.top1 for r in history.records],
            "ef": runtime.spec.ef,
        }
        if runtime.spec.ef:
            report["ef_telescoping_gap"] = runtime.hook.ef_telescoping_gap()
            report["ef_residual_norms"] = runtime.hook.channel.residual_norms()
        return report

    def _fairness(self) -> Dict[str, float]:
        goodputs = []
        for runtime in self.runtimes:
            active = sum(runtime.hook.fcts)
            if active > 0:
                goodputs.append(runtime.hook.stats.bytes_sent / active)
        if not goodputs:
            return {"jain_goodput": 1.0}
        total = sum(goodputs)
        return {
            "jain_goodput": (total * total)
            / (len(goodputs) * sum(g * g for g in goodputs))
        }

    def report(self) -> Dict[str, Any]:
        """Deterministic digest: no wall-clock values, ever."""
        switch_totals = self.net.total_switch_stats()
        ecmp_flows = sum(s.stats.ecmp_flows for s in self.net.switches.values())
        ecmp_collisions = sum(
            s.stats.ecmp_collisions for s in self.net.switches.values()
        )
        return {
            "scenario": self.scenario.name,
            "seed": self.seed,
            "topology": "fat-tree",
            "k": self.scenario.k,
            "ecmp": self.scenario.ecmp,
            "sim_time_s": self.net.sim.now,
            "waves": self.waves_run,
            "jobs": {
                runtime.spec.name: self._job_report(runtime)
                for runtime in self.runtimes
            },
            "tenants": {
                tenant.spec.name: {
                    "pattern": tenant.spec.pattern,
                    "flows": tenant.flow_count,
                    "flow_base": tenant_flow_base(tenant.tenant_index),
                    "packets_emitted": tenant.packets_emitted,
                }
                for tenant in self.tenants
            },
            "attribution": {
                owner: dict(sorted(verdicts.items()))
                for owner, verdicts in sorted(self.attribution.items())
            },
            "fabric": {
                **switch_totals,
                "ecmp_flows": ecmp_flows,
                "ecmp_collisions": ecmp_collisions,
            },
            "fairness": self._fairness(),
        }
