"""Event-loop profiler: where do a simulation's modeled and wall time go?

:class:`SimProfiler` shadows a :class:`~repro.net.simulator.Simulator`'s
``run`` with :meth:`~repro.net.simulator.Simulator.run_profiled`, which
times every callback as the event loop dispatches it:

* **wall time** (``time.perf_counter``) — the real CPU cost of running
  that callback, attributed to the pipeline stage the callback belongs
  to (switch / link / transport / collective / telemetry / faults);
* **modeled time** — the simulated-clock gap between this event and the
  previous one, attributed to the stage that consumed it (the stage
  whose event the simulation was waiting on).

Timing at the dispatch level (rather than wrapping the scheduling APIs)
means every event is covered no matter how it was posted — ``schedule``
closures and fire-and-forget ``schedule_call`` tuples alike — and the
fabric's hot paths stay free to cache bound scheduler methods.  Stages are classified from the callback's defining
module, so the instrumentation needs no cooperation from the
instrumented code.  This module lives in ``repro.obs`` (not
``repro.net``) deliberately: the wall-clock-in-sim lint rule bans
``perf_counter`` inside the simulated fabric, and the profiler is
exactly the observer that rule protects the fabric from becoming —
``run_profiled`` takes the clock as an argument for the same reason.

Profiling perturbs nothing modeled: callbacks run unchanged, in the
same order, at the same simulated times — only their execution is
timed.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - avoids obs -> net import cycle
    from ..net.simulator import Simulator

__all__ = ["StageProfile", "SimProfiler"]

#: Module-substring → stage, first match wins (order matters: the
#: specific ``net.*`` entries must precede the catch-alls).
_STAGE_RULES = (
    ("repro.net.switch", "switch"),
    ("repro.net.link", "link"),
    ("repro.net.queues", "link"),
    ("repro.net.crosstraffic", "tenants"),
    ("repro.net.telemetry", "telemetry"),
    ("repro.net.host", "transport"),
    ("repro.transport", "transport"),
    ("repro.collectives", "collective"),
    ("repro.train", "collective"),
    ("repro.faults", "faults"),
)


def _classify(callback: Callable[[], None]) -> str:
    module = getattr(callback, "__module__", "") or ""
    for needle, stage in _STAGE_RULES:
        if needle in module:
            return stage
    return "other"


class StageProfile:
    """Accumulated cost of one pipeline stage."""

    __slots__ = ("stage", "events", "wall_s", "modeled_s")

    def __init__(self, stage: str) -> None:
        self.stage = stage
        self.events = 0
        self.wall_s = 0.0
        self.modeled_s = 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "events": self.events,
            "wall_s": self.wall_s,
            "modeled_s": self.modeled_s,
        }


class SimProfiler:
    """Per-stage wall/modeled time attribution for one simulator.

    Use::

        profiler = SimProfiler()
        profiler.install(net.sim)
        net.sim.run(...)
        profiler.uninstall(net.sim)
        for row in profiler.report():
            ...
    """

    def __init__(self) -> None:
        self.profiles: Dict[str, StageProfile] = {}
        self.events_profiled = 0
        self._last_now: Optional[float] = None
        self._installed_on: Optional[Simulator] = None
        # callback __module__ -> stage, so the rule scan runs once per
        # distinct module instead of once per event.
        self._stage_cache: Dict[str, str] = {}

    def install(self, sim: Simulator) -> None:
        """Shadow ``sim.run`` with the timing dispatch loop."""
        if self._installed_on is not None:
            raise RuntimeError("profiler is already installed")
        profiler = self

        def run(
            until: Optional[float] = None, max_events: Optional[int] = None
        ) -> float:
            return sim.run_profiled(
                profiler._observe, perf_counter, until=until, max_events=max_events
            )

        # Instance attribute shadows the bound method; uninstall removes it.
        sim.run = run  # type: ignore[method-assign]
        self._installed_on = sim
        self._last_now = sim.now

    def uninstall(self, sim: Simulator) -> None:
        """Restore ``sim.run``."""
        if self._installed_on is not sim:
            raise RuntimeError("profiler is not installed on this simulator")
        if "run" in sim.__dict__:
            del sim.__dict__["run"]
        self._installed_on = None

    def _observe(self, callback: Callable, now: float, wall_s: float) -> None:
        """Credit one executed event to its stage (run_profiled hook)."""
        module = getattr(callback, "__module__", "") or ""
        stage = self._stage_cache.get(module)
        if stage is None:
            stage = self._stage_cache[module] = _classify(callback)
        profile = self._profile(stage)
        if self._last_now is not None and now > self._last_now:
            profile.modeled_s += now - self._last_now
        self._last_now = now
        profile.wall_s += wall_s
        profile.events += 1
        self.events_profiled += 1

    def _profile(self, stage: str) -> StageProfile:
        profile = self.profiles.get(stage)
        if profile is None:
            profile = self.profiles[stage] = StageProfile(stage)
        return profile

    # -- reporting ----------------------------------------------------------

    @property
    def total_wall_s(self) -> float:
        return sum(p.wall_s for p in self.profiles.values())

    @property
    def total_modeled_s(self) -> float:
        return sum(p.modeled_s for p in self.profiles.values())

    def report(self) -> List[Dict[str, Any]]:
        """Per-stage rows, heaviest wall time first, with share columns."""
        total_wall = self.total_wall_s or 1.0
        total_modeled = self.total_modeled_s or 1.0
        rows = []
        for profile in sorted(
            self.profiles.values(), key=lambda p: (-p.wall_s, p.stage)
        ):
            row = profile.to_json()
            row["wall_share"] = profile.wall_s / total_wall
            row["modeled_share"] = profile.modeled_s / total_modeled
            rows.append(row)
        return rows
