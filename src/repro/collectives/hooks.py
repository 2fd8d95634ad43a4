"""DDP-style communication hooks.

The paper implements its codecs as "customized communication hooks in
the Pytorch Distributed Data-Parallel framework".  A
:class:`CommHook` is the same seam here: the trainer hands it the list
of per-worker flat gradients each round and receives the aggregated
gradient back.  Hooks own their channel, so swapping
baseline/sign/SQ/SD/RHT aggregation is a one-line change in experiments.

Hooks optionally *bucket* the gradient the way PyTorch DDP does (the
paper cites the 25 MB default): each bucket becomes its own collective
message with its own codec state — in particular its own σ / clip range
/ row scales, which localizes the sign codec's global-σ damage and is
therefore visible in the experiments.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..obs.trace import get_tracer
from .channel import ChannelStats, GradientChannel, PerfectChannel
from .ring import allreduce_mean, ring_allreduce

if TYPE_CHECKING:  # avoid a runtime collectives -> resilience cycle
    from ..resilience.deadline import RoundDeadline

__all__ = ["CommHook", "AllReduceHook", "RingAllReduceHook", "bucket_bounds"]


def bucket_bounds(length: int, bucket_coords: Optional[int]) -> List[tuple]:
    """(start, end) spans splitting ``length`` coords into DDP buckets."""
    if bucket_coords is None or bucket_coords >= length:
        return [(0, length)]
    if bucket_coords <= 0:
        raise ValueError(f"bucket_coords must be positive, got {bucket_coords}")
    return [
        (start, min(start + bucket_coords, length))
        for start in range(0, length, bucket_coords)
    ]


class CommHook:
    """Aggregates per-worker gradients into one mean gradient.

    Args:
        channel: the gradient channel every message crosses.
        bucket_coords: DDP-style bucketing — split each gradient into
            buckets of this many coordinates, aggregated as independent
            messages (None = one message for the whole gradient).
        deadline: optional :class:`~repro.resilience.RoundDeadline`
            enabling partial aggregation over the round's responders
            (the trainer also assigns this after construction).
    """

    def __init__(
        self,
        channel: Optional[GradientChannel] = None,
        bucket_coords: Optional[int] = None,
        deadline: Optional["RoundDeadline"] = None,
    ) -> None:
        self.channel = channel or PerfectChannel()
        self.bucket_coords = bucket_coords
        self.deadline = deadline
        self._message_counter = 0

    @property
    def stats(self) -> ChannelStats:
        """Channel accounting accumulated over the whole run."""
        return self.channel.stats

    def next_message_id(self) -> int:
        self._message_counter += 1
        return self._message_counter

    def aggregate(self, grads: List[np.ndarray], epoch: int) -> np.ndarray:
        """Aggregate per-worker gradients (instrumented template method)."""
        start = time.perf_counter()
        # The hook has no modeled clock of its own (each transfer builds
        # a fresh network), so the span carries no times — it exists to
        # parent the channel.transfer spans begun inside _aggregate.
        tracer = get_tracer()
        span = tracer.begin(
            "collective.aggregate",
            hook=type(self).__name__,
            epoch=epoch,
            workers=len(grads),
        )
        with tracer.context(span):
            out = self._aggregate(grads, epoch)
        tracer.end(span)
        # Error-feedback channels key residuals by in-round slot; tell
        # them the round is over so the next one starts back at slot 0.
        end_round = getattr(self.channel, "end_round", None)
        if callable(end_round):
            end_round()
        duration = time.perf_counter() - start
        if tracer.enabled:
            tracer.event(
                "collective.aggregate",
                duration_s=duration,
                hook=type(self).__name__,
                epoch=epoch,
                workers=len(grads),
                coords=int(grads[0].size),
            )
        return out

    def _aggregate(self, grads: List[np.ndarray], epoch: int) -> np.ndarray:
        raise NotImplementedError


class AllReduceHook(CommHook):
    """Direct aggregation: every worker's message crosses the channel once.

    This matches the paper's evaluation: trimming hits each worker's
    gradient stream independently, then the receiver averages.  With
    ``bucket_coords`` set, each bucket is its own message (own metadata,
    own trim pattern), like DDP's 25 MB buckets.
    """

    def _aggregate(self, grads: List[np.ndarray], epoch: int) -> np.ndarray:
        spans = bucket_bounds(grads[0].size, self.bucket_coords)
        if len(spans) == 1:
            return allreduce_mean(
                grads,
                self.channel,
                epoch=epoch,
                message_id=self.next_message_id(),
                deadline=self.deadline,
            )
        out = np.empty(grads[0].size)
        for start, end in spans:
            out[start:end] = allreduce_mean(
                [g[start:end] for g in grads],
                self.channel,
                epoch=epoch,
                message_id=self.next_message_id(),
                deadline=self.deadline,
            )
        return out


class RingAllReduceHook(CommHook):
    """Ring aggregation: compression error compounds per chunk hop.

    Returns rank 0's copy (all ranks agree when the channel is
    deterministic for a given (epoch, message, worker) key).
    """

    def _aggregate(self, grads: List[np.ndarray], epoch: int) -> np.ndarray:
        results = ring_allreduce(
            grads,
            self.channel,
            epoch=epoch,
            message_id=self.next_message_id(),
            deadline=self.deadline,
        )
        return results[0]
