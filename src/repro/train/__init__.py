"""Distributed training on top of the codecs, collectives, and cost model."""

from .adaptive import AdaptiveQController, BudgetedLinkChannel
from .ddp import (
    DDPTrainer,
    EpochRecord,
    TrainConfig,
    TrainingHistory,
    shard_dataset,
)
from .fsdp import FSDPTrainer
from .network_channel import NetworkChannel
from .replay import TrimTranscript
from .timing import RoundTime, RoundTimeModel, measure_codec_throughput
from .trim_channel import TrimChannel

__all__ = [
    "AdaptiveQController",
    "BudgetedLinkChannel",
    "NetworkChannel",
    "DDPTrainer",
    "EpochRecord",
    "TrainConfig",
    "TrainingHistory",
    "shard_dataset",
    "FSDPTrainer",
    "TrimTranscript",
    "RoundTime",
    "RoundTimeModel",
    "measure_codec_throughput",
    "TrimChannel",
]
