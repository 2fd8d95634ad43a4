"""Declarative multi-tenant cluster scenarios.

A :class:`ClusterScenario` describes one shared-fabric experiment: which
training jobs run concurrently (:class:`JobSpec`), which background
tenants load the fabric (:class:`TenantSpec`), and the k-ary fat-tree
they all share.  Like
:class:`repro.faults.Scenario`, everything is plain data: scenarios
round-trip through dicts, so a JSON file is a valid scenario definition
and the preset table below is just four of them.

Determinism contract: a scenario carries no randomness of its own.  All
random draws (data, codec rotations, tenant on/off cycles, ECMP salt)
derive from the run seed through :mod:`repro.transforms.prng`, so one
``(scenario, seed)`` pair always produces the same report bytes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional, Tuple

from ..faults.scenarios import checked_fields

__all__ = [
    "TENANT_PATTERNS",
    "JobSpec",
    "TenantSpec",
    "ClusterScenario",
    "CLUSTER_PRESETS",
    "available_cluster_scenarios",
    "cluster_scenario_by_name",
]

#: Background-traffic shapes :class:`repro.cluster.TenantWorkload` builds.
TENANT_PATTERNS = ("incast", "elephant", "mice")

@dataclass(frozen=True)
class JobSpec:
    """One training job: the standard small MLP recipe on its own shard.

    Attributes:
        name: job id; also the per-tenant attribution label.
        workers: DDP world size — each worker gets its own host and its
            gradient flows to the job's aggregator host every round.
        epochs: training epochs.
        batch_size / lr: optimizer knobs (paper defaults scaled down).
        row_size: RHT codec row size.
        seed_offset: added to the run seed for this job's data/model/
            codec seeds (None = the job's index, so two jobs are
            identical workloads only if their offsets are pinned equal).
        ef: DGC-style error feedback on the fabric path — every worker
            keeps what trimming/surrender lost as a residual and adds
            it back next round, so the telescoping sum
            ``sum(delivered) + residual == sum(inputs)`` holds (the
            invariant the chaos campaign monitors).
        hidden: width of the MLP's hidden layer, which sets the gradient
            message's size (16: 3,224 coordinates, 256: 51,464).
    """

    name: str
    workers: int = 2
    epochs: int = 2
    batch_size: int = 8
    lr: float = 0.1
    row_size: int = 1024
    seed_offset: Optional[int] = None
    ef: bool = False
    hidden: int = 16

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a job needs a non-empty name")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1 or self.row_size < 1:
            raise ValueError("batch_size and row_size must be positive")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")


@dataclass(frozen=True)
class TenantSpec:
    """One background tenant: a named bundle of cross-traffic flows.

    Attributes:
        name: tenant id; also the attribution label.
        pattern: one of :data:`TENANT_PATTERNS` —

            * ``incast``: ``flows`` senders each blast ``burst_bytes``
              at one receiver every ``period_s`` (partition/aggregate);
            * ``elephant``: ``flows`` long-burst on/off flows near line
              rate (storage/replication background);
            * ``mice``: ``flows`` short-burst small-packet on/off flows
              (RPC fan-out noise).
        rate_bps: per-flow target rate during bursts.
        flows: parallel flows (elephant/mice) or incast fan-in.
        burst_bytes: bytes per incast sender per burst.
        period_s: incast repeat period.
        start_s / stop_s: active window on the shared simulation clock.
        dst_pod: fat-tree pod the traffic converges on; senders are
            placed on free hosts elsewhere.
    """

    name: str
    pattern: str = "elephant"
    rate_bps: float = 5e9
    flows: int = 2
    burst_bytes: int = 60_000
    period_s: float = 2e-3
    start_s: float = 0.0
    stop_s: Optional[float] = None
    dst_pod: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a tenant needs a non-empty name")
        if self.pattern not in TENANT_PATTERNS:
            raise ValueError(
                f"unknown tenant pattern {self.pattern!r}; "
                f"expected one of {TENANT_PATTERNS}"
            )
        if self.rate_bps <= 0 or self.flows < 1:
            raise ValueError("rate_bps and flows must be positive")
        if self.burst_bytes < 1 or self.period_s <= 0:
            raise ValueError("burst_bytes and period_s must be positive")
        if self.start_s < 0 or (self.stop_s is not None and self.stop_s <= self.start_s):
            raise ValueError(f"bad tenant window [{self.start_s}, {self.stop_s})")
        if self.dst_pod < 0:
            raise ValueError(f"dst_pod must be >= 0, got {self.dst_pod}")


@dataclass(frozen=True)
class ClusterScenario:
    """Concurrent jobs + tenants on one shared, ECMP-routed fabric."""

    name: str
    description: str
    jobs: Tuple[JobSpec, ...]
    tenants: Tuple[TenantSpec, ...] = ()
    k: int = 4
    rate_bps: float = 10e9
    delay_s: float = 1e-6
    buffer_bytes: int = 60_000
    ecmp: bool = True
    #: install the paper's single-level trim policy on every switch
    #: (False = drop-tail fabric).
    trim: bool = True
    deadline_s: float = 0.05
    mtu: int = 1500
    host_burst: int = 8

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("a cluster scenario needs at least one job")
        names = [job.name for job in self.jobs] + [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"job/tenant names must be unique, got {names}")
        if self.k % 2 != 0 or self.k < 2:
            raise ValueError(f"fat-tree degree k must be even and >= 2, got {self.k}")
        for tenant in self.tenants:
            if tenant.dst_pod >= self.k:
                raise ValueError(
                    f"tenant {tenant.name!r} has dst_pod {tenant.dst_pod}, "
                    f"but a k={self.k} fat-tree has pods 0..{self.k - 1}"
                )
        if self.rate_bps <= 0 or self.delay_s < 0 or self.buffer_bytes < 1:
            raise ValueError("bad fabric parameters")
        if self.deadline_s <= 0 or self.mtu < 64 or self.host_burst < 1:
            raise ValueError("deadline_s, mtu and host_burst must be positive")

    def to_dict(self) -> Dict:
        """Plain-data form (JSON-ready)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ClusterScenario":
        """Inverse of :meth:`to_dict`; unknown keys are rejected, jobs' and
        tenants' too."""
        payload = checked_fields(cls, data, "cluster scenario")
        payload["jobs"] = tuple(
            job if isinstance(job, JobSpec) else JobSpec(**checked_fields(JobSpec, job, "job"))
            for job in payload["jobs"]
        )
        payload["tenants"] = tuple(
            tenant
            if isinstance(tenant, TenantSpec)
            else TenantSpec(**checked_fields(TenantSpec, tenant, "tenant"))
            for tenant in payload.get("tenants", ())
        )
        return cls(**payload)


def _presets() -> Dict[str, ClusterScenario]:
    incast = ClusterScenario(
        name="incast-4job",
        description=(
            "four 2-worker jobs share a k=4 fat-tree while an "
            "incast tenant fires periodic partition/aggregate "
            "bursts into pod 1"
        ),
        jobs=tuple(JobSpec(name=f"job{i}", workers=2, epochs=2) for i in range(4)),
        tenants=(
            TenantSpec(
                name="incast-bg",
                pattern="incast",
                flows=3,
                burst_bytes=60_000,
                period_s=2e-3,
                dst_pod=1,
            ),
        ),
    )
    return {
        scenario.name: scenario
        for scenario in (
            incast,
            replace(
                incast,
                name="trim-4job",
                description=(
                    "incast-4job with 256-wide hidden layers: 51,464-coordinate "
                    "messages that the fabric trims (its drop-tail control is "
                    "the same scenario with trim false)"
                ),
                jobs=tuple(replace(job, hidden=256) for job in incast.jobs),
            ),
            ClusterScenario(
                name="elephant-2job",
                description=(
                    "two 2-worker jobs contend with a pair of elephant "
                    "flows converging on pod 1 plus a mice tenant"
                ),
                jobs=tuple(
                    JobSpec(name=f"job{i}", workers=2, epochs=2) for i in range(2)
                ),
                tenants=(
                    TenantSpec(
                        name="elephants", pattern="elephant", flows=2, rate_bps=8e9
                    ),
                    TenantSpec(
                        name="mice", pattern="mice", flows=4, rate_bps=1e9, dst_pod=2
                    ),
                ),
            ),
            ClusterScenario(
                name="idle-1job",
                description=(
                    "one 2-worker job alone on an idle fat-tree — the "
                    "single-job baseline anchor for isolation tests"
                ),
                jobs=(JobSpec(name="job0", workers=2, epochs=2),),
            ),
        )
    }


#: Named cluster presets the CLI and CI chaos matrix run.
CLUSTER_PRESETS: Dict[str, ClusterScenario] = _presets()


def available_cluster_scenarios() -> list:
    """Names of the built-in cluster presets."""
    return sorted(CLUSTER_PRESETS)


def cluster_scenario_by_name(name: str) -> ClusterScenario:
    """Look up a preset; raises ``KeyError`` with the available names."""
    try:
        return CLUSTER_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown cluster scenario {name!r}; "
            f"available: {available_cluster_scenarios()}"
        ) from None
