"""DDP-style communication hooks and the collectives they run.

The paper implements its codecs as "customized communication hooks in
the Pytorch Distributed Data-Parallel framework".  A
:class:`CommHook` is the same seam here: the trainer hands it the list
of per-worker flat gradients each round and receives the aggregated
gradient back.  Hooks own their channel, so swapping
baseline/sign/SQ/SD/RHT aggregation is a one-line change in experiments.

Every round sends one message per worker: :func:`allreduce_mean` puts
each worker's whole gradient across the channel once and the receiver
averages — exactly the paper's evaluation methodology.
:func:`broadcast` hands rank 0's vector to every rank (the rejoin path).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..obs.trace import get_tracer
from .channel import ChannelStats, GradientChannel, PerfectChannel

if TYPE_CHECKING:  # avoid a runtime collectives -> resilience cycle
    from ..resilience.deadline import RoundDeadline

__all__ = ["CommHook", "AllReduceHook", "allreduce_mean", "broadcast"]


def _check_same_shape(tensors: List[np.ndarray]) -> int:
    if not tensors:
        raise ValueError("collective needs at least one tensor")
    length = tensors[0].size
    for i, t in enumerate(tensors):
        if t.ndim != 1:
            raise ValueError(f"worker {i}: collectives operate on flat vectors")
        if t.size != length:
            raise ValueError(f"worker {i}: length {t.size} != {length}")
    return length


def allreduce_mean(
    tensors: List[np.ndarray],
    channel: Optional[GradientChannel] = None,
    epoch: int = 0,
    message_id: int = 0,
    deadline: Optional["RoundDeadline"] = None,
) -> np.ndarray:
    """Mean of all workers' vectors, each crossing the channel once.

    With a ``deadline``, only the responders' vectors cross the channel
    and the mean is rescaled over them — an unbiased estimator of the
    responder mean; stragglers neither transfer nor stall the round.
    An empty responder set surrenders the round (zero gradient).
    """
    channel = channel or PerfectChannel()
    _check_same_shape(tensors)
    ranks: Sequence[int] = range(len(tensors))
    if deadline is not None:
        ranks, _stragglers = deadline.split(list(ranks))
        if not ranks:
            channel.count_surrender()
            return np.zeros(tensors[0].size)
    received = [
        channel.transfer(
            tensors[rank], epoch=epoch, message_id=message_id, worker=rank
        )
        for rank in ranks
    ]
    return np.mean(received, axis=0)


def broadcast(
    tensor: np.ndarray,
    world: int,
    channel: Optional[GradientChannel] = None,
    epoch: int = 0,
    message_id: int = 0,
) -> List[np.ndarray]:
    """Rank 0's vector delivered to every rank (rank 0 keeps it exact)."""
    channel = channel or PerfectChannel()
    outputs = [np.asarray(tensor, dtype=np.float64)]
    for receiver in range(1, world):
        outputs.append(
            channel.transfer(tensor, epoch=epoch, message_id=message_id, worker=receiver)
        )
    return outputs


class CommHook:
    """Aggregates per-worker gradients into one mean gradient.

    Args:
        channel: the gradient channel every message crosses.
        deadline: optional :class:`~repro.resilience.RoundDeadline`
            enabling partial aggregation over the round's responders
            (the trainer also assigns this after construction).
    """

    def __init__(
        self,
        channel: Optional[GradientChannel] = None,
        deadline: Optional["RoundDeadline"] = None,
    ) -> None:
        self.channel = channel or PerfectChannel()
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
    gradient stream independently, then the receiver averages.
    """

    def _aggregate(self, grads: List[np.ndarray], epoch: int) -> np.ndarray:
        return allreduce_mean(
            grads,
            self.channel,
            epoch=epoch,
            message_id=self.next_message_id(),
            deadline=self.deadline,
        )
