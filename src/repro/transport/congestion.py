"""Window-based congestion control.

Two controllers that bracket the paper's setting:

* :class:`FixedWindow` — no reaction; models an aggressively provisioned
  RDMA-style sender (and keeps microbenchmarks deterministic).
* :class:`AIMD` — TCP-NewReno-flavoured: +1/cwnd per ACK, halve on loss
  or ECN.

Trim notifications feed :meth:`CongestionControl.on_trim`.  Per
Section 5.3, a trimming-aware sender should *not* slow down as hard as on
loss — the trimmed packet still delivered its head, and the whole point
is to keep the link saturated and let the switch compress.  AIMD applies
a gentle multiplicative decrease.
"""

from __future__ import annotations

__all__ = ["CongestionControl", "FixedWindow", "AIMD"]


class CongestionControl:
    """Interface: a window measured in packets."""

    def __init__(self, initial_window: float = 10.0, max_window: float = 1024.0) -> None:
        if initial_window < 1:
            raise ValueError("initial window must be at least 1 packet")
        self.cwnd = float(initial_window)
        self.max_window = float(max_window)

    @property
    def window(self) -> int:
        """Usable window, whole packets, at least 1."""
        return max(1, int(self.cwnd))

    def on_ack(self, ecn: bool = False) -> None:
        """A data packet was acknowledged (``ecn``: CE mark echoed)."""

    def on_trim(self) -> None:
        """An in-network trim was reported for one of our packets."""

    def on_loss(self) -> None:
        """A retransmission timeout fired."""

    def _clamp(self) -> None:
        self.cwnd = min(max(self.cwnd, 1.0), self.max_window)


class FixedWindow(CongestionControl):
    """Constant window: no congestion reaction at all."""


class AIMD(CongestionControl):
    """Additive-increase / multiplicative-decrease with ECN support."""

    def __init__(
        self,
        initial_window: float = 10.0,
        max_window: float = 1024.0,
        trim_decrease: float = 0.9,
    ) -> None:
        super().__init__(initial_window, max_window)
        self.trim_decrease = trim_decrease

    def on_ack(self, ecn: bool = False) -> None:
        if ecn:
            self.cwnd *= 0.5
        else:
            self.cwnd += 1.0 / self.cwnd
        self._clamp()

    def on_trim(self) -> None:
        # Gentler than loss: the head got through, only tails were cut.
        self.cwnd *= self.trim_decrease
        self._clamp()

    def on_loss(self) -> None:
        self.cwnd *= 0.5
        self._clamp()

