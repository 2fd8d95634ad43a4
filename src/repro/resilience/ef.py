"""Error-feedback channel wrapper (DGC / EF-SGD style).

Every lossy stage of the pipeline — trimming, quantization, a dropped
packet, a surrendered round — discards gradient mass silently.  Deep
Gradient Compression's fix is *error feedback*: keep what the channel
lost as a per-worker residual and add it back to the next round's
input, so compression error telescopes instead of accumulating:

    carry_t    = input_t + residual_{t-1}
    delivered  = channel(carry_t)
    residual_t = carry_t - delivered

which gives ``sum(delivered) + residual_T == sum(inputs)`` exactly —
the invariant the property suite checks.  A surrendered round (zero
delivered) leaves the whole carry in the residual: the update is
delayed one round, not lost.

Every round sends one message per worker, so residuals are keyed by
worker alone.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

import numpy as np

from ..collectives.channel import GradientChannel
from ..obs.trace import get_tracer

__all__ = ["EFChannel"]


class EFChannel(GradientChannel):
    """Wrap any :class:`GradientChannel` with per-worker error feedback.

    The wrapper shares the inner channel's :class:`ChannelStats` object,
    so trim/drop/surrender accounting stays in one place regardless of
    wrapping.

    Args:
        inner: the lossy channel to compensate.
        label: the ``run`` field of its ``resilience.ef_residual`` events.
    """

    def __init__(self, inner: GradientChannel, label: str = "train") -> None:
        # No super().__init__(): the accounting, and its publication, are
        # the inner channel's.
        self.inner = inner
        self.label = label
        self.stats = inner.stats
        self._residuals: Dict[int, np.ndarray] = {}

    def transfer(
        self, flat: np.ndarray, *, epoch: int = 0, message_id: int = 0, worker: int = 0
    ) -> np.ndarray:
        carry = self.carry(flat, worker)
        delivered = self.inner.transfer(
            carry, epoch=epoch, message_id=message_id, worker=worker
        )
        self.settle(carry, delivered, epoch=epoch, message_id=message_id, worker=worker)
        return delivered

    def carry(self, flat: np.ndarray, worker: int) -> np.ndarray:
        """``worker``'s input plus the residual its last message left.

        :meth:`transfer` is ``carry`` → inner channel → :meth:`settle`.
        The halves are public for a carrier that cannot deliver inside
        one call: the cluster launches every worker's carry on the
        shared fabric first and settles them once the wave has run.
        """
        flat = np.asarray(flat, dtype=np.float64)
        residual = self._residuals.get(worker)
        return flat if residual is None else flat + residual

    def settle(
        self,
        carry: np.ndarray,
        delivered: np.ndarray,
        *,
        epoch: int = 0,
        message_id: int = 0,
        worker: int = 0,
    ) -> None:
        """Keep what the carrier lost of ``carry`` as ``worker``'s residual."""
        residual = carry - delivered
        self._residuals[worker] = residual
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "resilience.ef_residual",
                run=self.label,
                epoch=epoch,
                message_id=message_id,
                worker=worker,
                residual_norm=float(np.linalg.norm(residual)),
            )

    def residual(self, worker: int) -> np.ndarray:
        """Copy of one worker's residual (zeros-shaped errors start as absent)."""
        value = self._residuals.get(worker)
        if value is None:
            raise KeyError(f"no residual for worker {worker}")
        return value.copy()

    def residual_norms(self) -> Dict[int, float]:
        """Per-worker residual L2 norm."""
        return {
            worker: float(np.linalg.norm(value))
            for worker, value in sorted(self._residuals.items())
        }

    def drop_worker(self, worker: int) -> None:
        """Discard a worker's residual (evicted workers rejoin fresh)."""
        self._residuals.pop(worker, None)

    def reset_stats(self) -> None:
        self.inner.reset_stats()  # zeroes the shared stats in place

    # -- checkpointing ----------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Residual buffers, JSON-ready."""
        residuals: List[Dict[str, Any]] = [
            {"worker": worker, "values": value.tolist()}
            for worker, value in sorted(self._residuals.items())
        ]
        return {"residuals": residuals}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Inverse of :meth:`state_dict`; refuses the per-slot format."""
        if "slots" in state or any("slot" in item for item in state["residuals"]):
            raise ValueError(
                "EF state keyed by (worker, slot) is not supported: "
                "residuals are keyed by worker"
            )
        self._residuals = {
            int(item["worker"]): np.asarray(item["values"], dtype=np.float64)
            for item in state["residuals"]
        }
