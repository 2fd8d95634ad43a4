"""Trimmable gradients: just-in-time gradient compression via packet trimming.

Reproduction of Chen, Vargaftik & Ben Basat (HotNets '24).  The package
is organized as:

* :mod:`repro.core` — the paper's contribution: trimmable two-part
  gradient codecs (sign / SQ / SD / RHT), multi-level tiered codes, and
  the heads-first packet layout.
* :mod:`repro.transforms` — fast Walsh-Hadamard transform and shared-
  randomness streams.
* :mod:`repro.packet` — wire formats, bit packing, and trim policies.
* :mod:`repro.net` — a discrete-event network simulator with
  trim-on-overflow shallow-buffer switches.
* :mod:`repro.transport` — go-back-N (NCCL-like) and trimming-aware
  (NDP-like) transports with congestion control.
* :mod:`repro.collectives` — all-reduce / all-gather over pluggable
  gradient channels, DDP-style comm hooks.
* :mod:`repro.nn` — a numpy autograd training substrate (VGG-style
  models, SGD+momentum, synthetic CIFAR-100-like data).
* :mod:`repro.train` — distributed trainers, the Bernoulli trim channel
  of the paper's evaluation, the wall-clock cost model, trim-transcript
  replay, and FSDP.
* :mod:`repro.baselines` — TernGrad, Top-K, PowerSGD comparisons.
* :mod:`repro.obs` — unified observability: process-wide metrics
  registry, gradient-path span tracing to JSONL, Prometheus text dump
  and per-run reports (``python -m repro.obs.report``).

Quickstart::

    import numpy as np
    from repro import RHTCodec, packetize, decode_packets, nmse

    gradient = np.random.default_rng(0).standard_normal(100_000)
    codec = RHTCodec(root_seed=7)
    packets = packetize(codec.encode(gradient), "gpu0", "gpu1")
    wire = [packets[0]] + [p.trim() for p in packets[1:]]  # congested!
    estimate = decode_packets(wire, codec)
    print(f"NMSE after trimming every packet: {nmse(gradient, estimate):.3f}")
"""

import logging as _logging
import os as _os
import sys as _sys

# Library logging convention: everything under the ``repro.*`` hierarchy,
# silent by default (NullHandler), opted into by applications via
# :func:`configure_logging` or the standard logging module.
_logging.getLogger("repro").addHandler(_logging.NullHandler())


class _DelegatingStreamHandler(_logging.Handler):
    """Handler resolving ``sys.stdout``/``sys.stderr`` at emit time.

    Resolving lazily (instead of capturing the stream at configure time)
    keeps log output visible to tools that swap the streams later —
    pytest's capsys, tee wrappers, notebook kernels.
    """

    def __init__(self, stream_name: str = "stdout") -> None:
        super().__init__()
        if stream_name not in ("stdout", "stderr"):
            raise ValueError(f"stream_name must be stdout or stderr, got {stream_name!r}")
        self.stream_name = stream_name

    def emit(self, record: _logging.LogRecord) -> None:
        try:
            stream = getattr(_sys, self.stream_name)
            stream.write(self.format(record) + "\n")
        except Exception:
            self.handleError(record)


def configure_logging(level=None, stream_name: str = "stdout", fmt: str = "%(message)s"):
    """Attach one stream handler to the ``repro`` logger (idempotent).

    Args:
        level: logging level name or number; defaults to the
            ``REPRO_LOG_LEVEL`` environment variable, then ``INFO``.
        stream_name: ``"stdout"`` (default, CLI-friendly) or ``"stderr"``.
        fmt: log record format (default: bare message, so CLI output
            looks like plain prints).

    Returns:
        The configured ``repro`` logger.
    """
    logger = _logging.getLogger("repro")
    if level is None:
        level = _os.environ.get("REPRO_LOG_LEVEL", "INFO")
    logger.setLevel(level)
    for handler in logger.handlers:
        if isinstance(handler, _DelegatingStreamHandler):
            handler.stream_name = stream_name
            handler.setFormatter(_logging.Formatter(fmt))
            return logger
    handler = _DelegatingStreamHandler(stream_name)
    handler.setFormatter(_logging.Formatter(fmt))
    logger.addHandler(handler)
    return logger


def number_in(kind, low, high=None, *, above=False):
    """An argparse ``type=``: a ``kind`` number of at least ``low`` (above it
    when ``above``) and at most ``high``, else a usage error (exit 2)."""
    if above:
        rule = f"above {low}"
    else:
        rule = f"at least {low}" if high is None else f"in [{low}, {high}]"

    def number(text: str):
        value = kind(text)
        fits = low < value if above else low <= value  # NaN fits nothing
        if not fits or (high is not None and not value <= high):
            from argparse import ArgumentTypeError  # keeps ``import repro`` free of argparse

            raise ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return number


def int_at_least(minimum: int):
    """An argparse ``type=``: an integer of at least ``minimum``, else a usage error (exit 2)."""
    return number_in(int, minimum)


from .core import (
    EncodedGradient,
    GradientCodec,
    GradientMetadata,
    MultiLevelCodec,
    RHTCodec,
    SignMagnitudeCodec,
    StochasticQuantizationCodec,
    SubtractiveDitheringCodec,
    TrimmableLayout,
    available_codecs,
    codec_by_id,
    codec_by_name,
    decode_packets,
    depacketize,
    nmse,
    packetize,
    paper_worked_example,
)
from .packet import GradientHeader, MultiLevelTrim, NeverTrim, Packet, SingleLevelTrim
from .train import (
    DDPTrainer,
    FSDPTrainer,
    RoundTimeModel,
    TimingConfig,
    TrainConfig,
    TrimChannel,
    TrimTranscript,
)

__version__ = "0.1.0"

__all__ = [
    "EncodedGradient",
    "GradientCodec",
    "GradientMetadata",
    "MultiLevelCodec",
    "RHTCodec",
    "SignMagnitudeCodec",
    "StochasticQuantizationCodec",
    "SubtractiveDitheringCodec",
    "TrimmableLayout",
    "available_codecs",
    "codec_by_id",
    "codec_by_name",
    "decode_packets",
    "depacketize",
    "nmse",
    "packetize",
    "paper_worked_example",
    "GradientHeader",
    "MultiLevelTrim",
    "NeverTrim",
    "Packet",
    "SingleLevelTrim",
    "DDPTrainer",
    "FSDPTrainer",
    "RoundTimeModel",
    "TimingConfig",
    "TrainConfig",
    "TrimChannel",
    "TrimTranscript",
    "configure_logging",
    "__version__",
]
