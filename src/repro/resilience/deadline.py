"""Deadline-based partial aggregation.

A synchronous all-reduce is only as fast as its slowest worker; one
straggler stalls every round.  :class:`RoundDeadline` gives each round a
time budget (derived from the :class:`~repro.train.timing.RoundTimeModel`
via :meth:`RoundDeadline.from_time_model`): workers whose modeled
transfer time exceeds the budget are excluded from the round, and the
collectives rescale the mean over the responders — an unbiased
estimator of the responder mean, with the stragglers' contribution
deferred rather than waited for.

The deadline is fed per round by the trainer (``begin_round``) with
each worker's modeled time for that round; the collective then calls
``split``, which only filters the responder set fixed at
``begin_round`` (no double counting).
"""

from __future__ import annotations

from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer

__all__ = ["RoundDeadline"]


class RoundDeadline:
    """Per-round time budget separating responders from stragglers.

    Args:
        deadline_s: modeled seconds a worker may take before it is
            excluded from the round.
        label: metrics label for the straggler counters.
    """

    def __init__(self, deadline_s: float, label: str = "train") -> None:
        if deadline_s <= 0.0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        self.deadline_s = deadline_s
        self.label = label
        self.rounds = 0
        # Outlives the deadline until the registry has what it counted.
        self._tally = SimpleNamespace(total_stragglers=0)
        self.last_times: Dict[int, float] = {}
        self.last_responders: Tuple[int, ...] = ()
        self.last_stragglers: Tuple[int, ...] = ()
        registry = get_registry()
        registry.publish_tally(self, self._tally, {
            "total_stragglers": registry.counter("repro_resilience_stragglers_total", ("run",)),
        }, run=label)

    total_stragglers = property(attrgetter("_tally.total_stragglers"))

    @classmethod
    def from_time_model(
        cls,
        model: Any,
        num_coords: int,
        factor: float = 1.5,
        label: str = "train",
        **round_kwargs: Any,
    ) -> "RoundDeadline":
        """Budget = ``factor`` x the cost model's nominal round time.

        ``model`` is a :class:`~repro.train.timing.RoundTimeModel` (typed
        loosely to keep this package import-light); ``round_kwargs`` are
        forwarded to :meth:`~repro.train.timing.RoundTimeModel.round_time`
        (codec_name, trim_rate, world_size).
        """
        if factor <= 1.0:
            raise ValueError(f"deadline factor must exceed 1, got {factor}")
        nominal = model.round_time(num_coords, **round_kwargs)
        return cls(deadline_s=factor * float(nominal.total_s), label=label)

    def begin_round(self, times: Mapping[int, float]) -> None:
        """Fix this round's responder set from per-worker modeled times.

        ``times`` maps worker rank to its modeled round time; ``inf``
        marks a worker known to be crashed or evicted.
        """
        self.rounds += 1
        self.last_times = dict(times)
        responders = sorted(r for r, t in times.items() if t <= self.deadline_s)
        stragglers = sorted(r for r in times if r not in set(responders))
        self.last_responders = tuple(responders)
        self.last_stragglers = tuple(stragglers)
        if stragglers:
            self._tally.total_stragglers += len(stragglers)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "resilience.stragglers",
                    run=self.label,
                    round=self.rounds,
                    deadline_s=self.deadline_s,
                    stragglers=list(stragglers),
                    responders=list(responders),
                )

    def split(self, ranks: Sequence[int]) -> Tuple[List[int], List[int]]:
        """Partition ``ranks`` into (responders, stragglers).

        Before any ``begin_round`` every rank responds — a deadline-aware
        collective used without a trainer degrades to the plain path.
        """
        if not self.last_times:
            return list(ranks), []
        late = set(self.last_stragglers)
        responders = [r for r in ranks if r not in late]
        stragglers = [r for r in ranks if r in late]
        return responders, stragglers

    def state_dict(self) -> Dict[str, Any]:
        """Counters and last-round split, JSON-ready."""
        return {
            "deadline_s": self.deadline_s,
            "rounds": self.rounds,
            "total_stragglers": self.total_stragglers,
            "last_times": {str(k): v for k, v in self.last_times.items()},
            "last_responders": list(self.last_responders),
            "last_stragglers": list(self.last_stragglers),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Inverse of :meth:`state_dict` (deadline_s is checked, not set)."""
        self.rounds = int(state["rounds"])
        self._tally.total_stragglers = int(state["total_stragglers"])
        self.last_times = {int(k): float(v) for k, v in state["last_times"].items()}
        self.last_responders = tuple(int(r) for r in state["last_responders"])
        self.last_stragglers = tuple(int(r) for r in state["last_stragglers"])
