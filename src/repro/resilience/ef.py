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

Residuals are keyed by ``(worker, slot)`` where ``slot`` is the
message's index *within the round* — stable across rounds even under
DDP bucketing, where one round issues several messages per worker with
fresh ``message_id``s.  :meth:`EFChannel.end_round` closes a round and
resets the slot counters; :class:`~repro.collectives.hooks.CommHook`
calls it automatically after each aggregation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

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
        self._residuals: Dict[Tuple[int, int], np.ndarray] = {}
        self._slots: Dict[int, int] = {}

    def transfer(
        self, flat: np.ndarray, *, epoch: int = 0, message_id: int = 0, worker: int = 0
    ) -> np.ndarray:
        slot, carry = self.carry(flat, worker)
        delivered = self.inner.transfer(
            carry, epoch=epoch, message_id=message_id, worker=worker
        )
        self.settle(
            slot, carry, delivered, epoch=epoch, message_id=message_id, worker=worker
        )
        return delivered

    def carry(self, flat: np.ndarray, worker: int) -> Tuple[int, np.ndarray]:
        """Claim ``worker``'s next slot; returns it with input + residual.

        :meth:`transfer` is ``carry`` → inner channel → :meth:`settle`.
        The halves are public for a carrier that cannot deliver inside
        one call: the cluster launches every worker's carry on the
        shared fabric first and settles them once the wave has run.
        """
        flat = np.asarray(flat, dtype=np.float64)
        slot = self._slots.get(worker, 0)
        self._slots[worker] = slot + 1
        residual = self._residuals.get((worker, slot))
        return slot, flat if residual is None else flat + residual

    def settle(
        self,
        slot: int,
        carry: np.ndarray,
        delivered: np.ndarray,
        *,
        epoch: int = 0,
        message_id: int = 0,
        worker: int = 0,
    ) -> None:
        """Keep what the carrier lost of ``carry`` as the slot's residual."""
        residual = carry - delivered
        self._residuals[(worker, slot)] = residual
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "resilience.ef_residual",
                run=self.label,
                epoch=epoch,
                message_id=message_id,
                worker=worker,
                slot=slot,
                residual_norm=float(np.linalg.norm(residual)),
            )

    def end_round(self) -> None:
        """Close the round: the next transfer starts again at slot 0."""
        self._slots.clear()

    def residual(self, worker: int, slot: int = 0) -> np.ndarray:
        """Copy of one residual (zeros-shaped errors start as absent)."""
        value = self._residuals.get((worker, slot))
        if value is None:
            raise KeyError(f"no residual for worker {worker}, slot {slot}")
        return value.copy()

    def residual_norms(self) -> Dict[int, float]:
        """Per-worker total residual L2 norm across all slots."""
        totals: Dict[int, float] = {}
        for (worker, _slot), value in self._residuals.items():
            totals[worker] = totals.get(worker, 0.0) + float(
                np.sum(value * value)
            )
        return {worker: float(np.sqrt(s)) for worker, s in sorted(totals.items())}

    def drop_worker(self, worker: int) -> None:
        """Discard a worker's residuals (evicted workers rejoin fresh)."""
        self._residuals = {
            key: value for key, value in self._residuals.items() if key[0] != worker
        }
        self._slots.pop(worker, None)

    def reset_stats(self) -> None:
        self.inner.reset_stats()  # zeroes the shared stats in place

    # -- checkpointing ----------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Residual buffers and slot counters, JSON-ready."""
        residuals: List[Dict[str, Any]] = [
            {"worker": worker, "slot": slot, "values": value.tolist()}
            for (worker, slot), value in sorted(self._residuals.items())
        ]
        return {
            "residuals": residuals,
            "slots": {str(w): s for w, s in self._slots.items()},
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Inverse of :meth:`state_dict`."""
        self._residuals = {
            (int(item["worker"]), int(item["slot"])): np.asarray(
                item["values"], dtype=np.float64
            )
            for item in state["residuals"]
        }
        self._slots = {int(w): int(s) for w, s in dict(state["slots"]).items()}
