"""Multi-tenant fabric simulation: concurrent jobs sharing one network.

This package drives several :class:`~repro.train.ddp.DDPTrainer` jobs
*concurrently* over one simulated ECMP-routed fat-tree fabric,
alongside background tenants built from
:mod:`repro.net.crosstraffic`.  Per-flow id blocks make every switch
trim/drop verdict attributable to the job or tenant that owned the
packet, and the whole run is deterministic per ``(scenario, seed)``.

Entry points: the :class:`ClusterScenario` spec (JSON round-trippable),
the :class:`ClusterDriver` engine, and the ``repro-cluster`` CLI.
"""

from .driver import JOB_FLOW_BASE, JOB_FLOW_BLOCK, ClusterDriver, FabricHook
from .scenario import (
    CLUSTER_PRESETS,
    ClusterScenario,
    JobSpec,
    TenantSpec,
    available_cluster_scenarios,
    cluster_scenario_by_name,
)
from .tenants import TENANT_FLOW_BLOCK, TenantWorkload, tenant_flow_base

__all__ = [
    "JOB_FLOW_BASE",
    "JOB_FLOW_BLOCK",
    "ClusterDriver",
    "FabricHook",
    "CLUSTER_PRESETS",
    "ClusterScenario",
    "JobSpec",
    "TenantSpec",
    "available_cluster_scenarios",
    "cluster_scenario_by_name",
    "TENANT_FLOW_BLOCK",
    "TenantWorkload",
    "tenant_flow_base",
]
