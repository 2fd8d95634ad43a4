"""Queue telemetry: sampled depth time series for congestion studies.

The §5.1 closed-loop questions ("how do trim depth, queueing and the
resulting trim fraction interact?") need visibility into queue dynamics
over time, not just end-of-run counters.  :class:`QueueMonitor` samples
one or more egress queues at a fixed period and produces summary
statistics and ASCII-plottable series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.trace import get_tracer
from .link import Link
from .simulator import Simulator

__all__ = ["QueueSample", "QueueMonitor", "impairment_summary"]


def impairment_summary(network) -> Dict[str, Dict[str, int]]:
    """Per-link impairment counters for every link in ``network``.

    Walks host uplinks and switch ports and reports, per ``src->dst``
    label, the packets sent, probabilistically dropped/trimmed, and lost
    to fault-injected link flaps, plus whether the link is currently up.
    The faults CLI folds this into its run summary; tests use it to
    assert where a scenario actually bit.
    """
    links: Dict[str, Link] = {}
    for host in network.hosts.values():
        if host.uplink is not None:
            links[f"{host.name}->{host.uplink.dst.name}"] = host.uplink
    for switch in network.switches.values():
        for neighbor, link in switch.ports.items():
            links[f"{switch.name}->{neighbor}"] = link
    return {
        label: {
            "packets_sent": link.packets_sent,
            "packets_dropped": link.packets_dropped,
            "packets_trimmed": link.packets_trimmed,
            "packets_lost_down": link.packets_lost_down,
            "up": int(link.up),
        }
        for label, link in sorted(links.items())
    }


@dataclass
class QueueSample:
    """One observation of a queue."""

    time: float
    bytes_queued: int
    packets: int


class QueueMonitor:
    """Periodic sampler of link egress queues.

    Args:
        sim: the event loop.
        period_s: sampling period.
        stop_at: stop sampling at this simulation time (None = sample
            while any event remains; the monitor reschedules itself only
            while other work is pending, so it never keeps an otherwise
            finished simulation alive).
    """

    def __init__(
        self, sim: Simulator, period_s: float = 1e-5, stop_at: Optional[float] = None
    ):
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.period_s = period_s
        self.stop_at = stop_at
        self._watched: Dict[str, Link] = {}
        self.samples: Dict[str, List[QueueSample]] = {}
        self._running = False

    def watch(self, label: str, link: Link) -> None:
        """Start recording the egress queue feeding ``link``."""
        if label in self._watched:
            raise ValueError(f"already watching {label!r}")
        self._watched[label] = link
        self.samples[label] = []
        if not self._running:
            self._running = True
            self.sim.schedule(0.0, self._tick)

    def watch_network(self, network) -> List[str]:
        """Watch every switch egress port in ``network``.

        Ports are registered in sorted order so the label set (and every
        downstream sample/trace/JSONL ordering) is deterministic.
        Returns the labels watched.
        """
        labels: List[str] = []
        for name in sorted(network.switches):
            switch = network.switches[name]
            for neighbor, link in sorted(switch.ports.items()):
                label = f"{name}->{neighbor}"
                if label not in self._watched:
                    self.watch(label, link)
                    labels.append(label)
        return labels

    def _tick(self) -> None:
        tracer = get_tracer()
        for label, link in self._watched.items():
            queue = link.queue
            depth = queue.bytes_queued
            self.samples[label].append(
                QueueSample(
                    time=self.sim.now,
                    bytes_queued=depth,
                    packets=len(queue),
                )
            )
            if tracer.enabled:
                tracer.event(
                    "queue.sample",
                    sim_time=self.sim.now,
                    queue=label,
                    bytes_queued=depth,
                    packets=len(queue),
                )
        past_deadline = self.stop_at is not None and self.sim.now >= self.stop_at
        # Only reschedule while the simulation has other live work: a
        # monitor must observe, not prolong, the run.
        if not past_deadline and self.sim.pending() > 0:
            self.sim.schedule(self.period_s, self._tick)
        else:
            self._running = False

    # -- analysis ---------------------------------------------------------------

    def series(self, label: str) -> List[Tuple[float, float]]:
        """(time, bytes) pairs, ready for the harness ASCII chart."""
        return [(s.time, float(s.bytes_queued)) for s in self.samples[label]]

    def peak_bytes(self, label: str) -> int:
        samples = self.samples[label]
        return max((s.bytes_queued for s in samples), default=0)

    def mean_bytes(self, label: str) -> float:
        samples = self.samples[label]
        if not samples:
            return 0.0
        return float(np.mean([s.bytes_queued for s in samples]))

    def time_above(self, label: str, threshold_bytes: int) -> float:
        """Fraction of samples with queue depth above ``threshold_bytes``."""
        samples = self.samples[label]
        if not samples:
            return 0.0
        above = sum(1 for s in samples if s.bytes_queued > threshold_bytes)
        return above / len(samples)

    def percentile(self, label: str, q: float) -> float:
        """q-th percentile (q in [0, 100]) of the sampled depth in bytes."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        samples = self.samples[label]
        if not samples:
            return 0.0
        return float(np.percentile([s.bytes_queued for s in samples], q))

    def summary(self, label: str) -> Dict[str, float]:
        """The report-ready stats bundle for one watched queue."""
        samples = self.samples[label]
        return {
            "samples": float(len(samples)),
            "mean": self.mean_bytes(label),
            "p50": self.percentile(label, 50),
            "p90": self.percentile(label, 90),
            "p99": self.percentile(label, 99),
            "peak": float(self.peak_bytes(label)),
        }
