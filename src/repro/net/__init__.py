"""Discrete-event network simulator: engine, queues, links, switches, topologies."""

from .crosstraffic import CROSS_TRAFFIC_FLOW_BASE, IncastBurst, OnOffFlow
from .host import Host
from .link import Device, DeliveryHook, Link
from .queues import ByteQueue, PriorityQueue
from .simulator import Event, Simulator
from .switch import Switch, SwitchStats
from .telemetry import QueueMonitor, QueueSample, fabric_health, impairment_summary
from .topology import GBPS, Network, dumbbell, fat_tree, leaf_spine

__all__ = [
    "CROSS_TRAFFIC_FLOW_BASE",
    "IncastBurst",
    "OnOffFlow",
    "Host",
    "Device",
    "DeliveryHook",
    "Link",
    "ByteQueue",
    "PriorityQueue",
    "Event",
    "Simulator",
    "Switch",
    "SwitchStats",
    "QueueMonitor",
    "QueueSample",
    "fabric_health",
    "impairment_summary",
    "GBPS",
    "Network",
    "dumbbell",
    "fat_tree",
    "leaf_spine",
]
