"""Elastic worker membership with phi-accrual suspicion.

Classic failure detectors answer a binary "is it dead?"; the phi-accrual
detector (Hayashibara et al.) instead outputs a *suspicion level*
``phi = -log10 P(T > observed)`` under the distribution of the worker's
past round times — phi 1 means a round this slow happens one time in
ten, phi 3 one time in a thousand.  :class:`Membership` feeds the
detector with the trainer's modeled per-worker round times:

* ``alive``   — responding within the deadline, low phi;
* ``suspect`` — responded, but slow enough that ``phi >= suspect_phi``;
* ``dead``    — missed ``evict_after`` consecutive deadlines (evicted).

Evicted workers can be re-admitted (``readmit``) once they respond
again; the trainer pairs that with a ``broadcast`` of the current model
so the rejoiner resumes from the live parameters, not its stale copy.
"""

from __future__ import annotations

import math
from collections import deque
from enum import Enum
from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Deque, Dict, List, Mapping

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer

__all__ = ["Membership", "WorkerState"]

#: Floor on the round-time standard deviation so a perfectly regular
#: history does not make every deviation register as infinite suspicion.
_MIN_STD_S = 1e-6

#: Suspicion cap: erfc underflows around phi ~ 300; anything beyond
#: "one in 10^30" is reported as this sentinel.
_PHI_MAX = 30.0


class WorkerState(str, Enum):
    """Membership state of one worker."""

    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"


class Membership:
    """Tracks which workers are participating in the job.

    Args:
        world_size: total worker count (ranks ``0..world_size-1``).
        evict_after: consecutive missed deadlines before eviction.
        suspect_phi: phi-accrual threshold that flags a responding
            worker as suspect.
        window: round-time samples kept per worker for the detector.
        label: metrics label for eviction/rejoin counters.
    """

    def __init__(
        self,
        world_size: int,
        evict_after: int = 3,
        suspect_phi: float = 3.0,
        window: int = 32,
        label: str = "train",
    ) -> None:
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if evict_after < 1:
            raise ValueError(f"evict_after must be >= 1, got {evict_after}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.world_size = world_size
        self.evict_after = evict_after
        self.suspect_phi = suspect_phi
        self.window = window
        self.label = label
        self.states: Dict[int, WorkerState] = {
            rank: WorkerState.ALIVE for rank in range(world_size)
        }
        self.missed: Dict[int, int] = {rank: 0 for rank in range(world_size)}
        # Outlives the membership until the registry has what it counted.
        self._tally = SimpleNamespace(evictions=0, rejoins=0)
        self._times: Dict[int, Deque[float]] = {
            rank: deque(maxlen=window) for rank in range(world_size)
        }
        registry = get_registry()
        registry.publish_tally(self, self._tally, {
            "evictions": registry.counter("repro_resilience_evictions_total", ("run",)),
            "rejoins": registry.counter("repro_resilience_rejoins_total", ("run",)),
        }, run=label)

    evictions = property(attrgetter("_tally.evictions"))
    rejoins = property(attrgetter("_tally.rejoins"))

    # -- detector ---------------------------------------------------------------

    def phi(self, rank: int, observed_s: float) -> float:
        """Suspicion level of ``observed_s`` against the rank's history."""
        history = self._times[rank]
        if len(history) < 2:
            return 0.0
        mean = sum(history) / len(history)
        var = sum((t - mean) ** 2 for t in history) / len(history)
        std = max(math.sqrt(var), _MIN_STD_S)
        # P(T > observed) under Normal(mean, std), via erfc for tail accuracy.
        tail = 0.5 * math.erfc((observed_s - mean) / (std * math.sqrt(2.0)))
        if tail <= 10.0 ** (-_PHI_MAX):
            return _PHI_MAX
        return -math.log10(tail)

    # -- state transitions ------------------------------------------------------

    def observe(self, rank: int, round_time_s: float) -> WorkerState:
        """A worker responded within the deadline; update its state."""
        self._check(rank)
        suspicion = self.phi(rank, round_time_s)
        self._times[rank].append(round_time_s)
        self.missed[rank] = 0
        if self.states[rank] is WorkerState.DEAD:
            return WorkerState.DEAD  # still needs an explicit readmit
        new_state = (
            WorkerState.SUSPECT if suspicion >= self.suspect_phi else WorkerState.ALIVE
        )
        self.states[rank] = new_state
        return new_state

    def miss(self, rank: int) -> WorkerState:
        """A worker missed the deadline; evict after ``evict_after`` misses."""
        self._check(rank)
        if self.states[rank] is WorkerState.DEAD:
            return WorkerState.DEAD
        self.missed[rank] += 1
        if self.missed[rank] >= self.evict_after:
            self.states[rank] = WorkerState.DEAD
            self._tally.evictions += 1
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "resilience.evict",
                    run=self.label,
                    worker=rank,
                    missed=self.missed[rank],
                )
        else:
            self.states[rank] = WorkerState.SUSPECT
        return self.states[rank]

    def readmit(self, rank: int) -> None:
        """Bring an evicted worker back (after the model broadcast)."""
        self._check(rank)
        if self.states[rank] is not WorkerState.DEAD:
            raise ValueError(f"worker {rank} is {self.states[rank].value}, not dead")
        self.states[rank] = WorkerState.ALIVE
        self.missed[rank] = 0
        self._times[rank].clear()  # stale history would bias the detector
        self._tally.rejoins += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("resilience.rejoin", run=self.label, worker=rank)

    # -- queries ----------------------------------------------------------------

    def state(self, rank: int) -> WorkerState:
        self._check(rank)
        return self.states[rank]

    def is_dead(self, rank: int) -> bool:
        self._check(rank)
        return self.states[rank] is WorkerState.DEAD

    def participants(self) -> List[int]:
        """Ranks still in the round (alive or suspect)."""
        return [
            rank
            for rank in range(self.world_size)
            if self.states[rank] is not WorkerState.DEAD
        ]

    def _check(self, rank: int) -> None:
        if rank not in self.states:
            raise KeyError(f"unknown worker rank {rank}")

    # -- checkpointing ----------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Full detector + membership state, JSON-ready."""
        return {
            "states": {str(r): s.value for r, s in self.states.items()},
            "missed": {str(r): m for r, m in self.missed.items()},
            "evictions": self.evictions,
            "rejoins": self.rejoins,
            "times": {str(r): list(t) for r, t in self._times.items()},
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Inverse of :meth:`state_dict`."""
        self.states = {
            int(r): WorkerState(v) for r, v in dict(state["states"]).items()
        }
        self.missed = {int(r): int(m) for r, m in dict(state["missed"]).items()}
        self._tally.evictions = int(state["evictions"])
        self._tally.rejoins = int(state["rejoins"])
        self._times = {
            int(r): deque((float(x) for x in ts), maxlen=self.window)
            for r, ts in dict(state["times"]).items()
        }
