"""Fixture: ad-hoc randomness flowing into the event loop across methods."""

import numpy as np


class BackgroundFlow:
    def __init__(self, sim, seed):
        self.sim = sim
        self._rng = np.random.default_rng(seed)

    def start(self):
        delay = self._rng.exponential(1e-3)
        self.sim.schedule(delay, self.start)

    def tick(self):
        delay = self._rng.exponential(1e-3)
        self.sim.schedule_call(delay, BackgroundFlow.tick, self)

    def nudge(self, timer):
        delay = self._rng.exponential(1e-3)
        return self.sim.reschedule(timer, delay)
