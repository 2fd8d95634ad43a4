"""Transport substrate: congestion control, three sender/receiver stacks, the transfer."""

from .base import MessageSenderBase, RttEstimator, TransportSurrender, segment_bytes
from .congestion import AIMD, CongestionControl, FixedWindow
from .pull import PullReceiver, PullSender
from .reliable import GoBackNReceiver, GoBackNSender
from .transfer import Transfer
from .trimming import TrimmingReceiver, TrimmingSender

__all__ = [
    "MessageSenderBase",
    "RttEstimator",
    "TransportSurrender",
    "segment_bytes",
    "AIMD",
    "CongestionControl",
    "FixedWindow",
    "GoBackNReceiver",
    "GoBackNSender",
    "PullReceiver",
    "PullSender",
    "TrimmingReceiver",
    "TrimmingSender",
    "Transfer",
]
