"""Collective-communication substrate (the *ccl of the paper)."""

from .channel import ChannelStats, GradientChannel, PerfectChannel
from .hooks import AllReduceHook, CommHook, allreduce_mean, broadcast

__all__ = [
    "ChannelStats",
    "GradientChannel",
    "PerfectChannel",
    "AllReduceHook",
    "CommHook",
    "allreduce_mean",
    "broadcast",
]
