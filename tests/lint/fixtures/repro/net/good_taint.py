"""Fixture: sanctioned shared randomness feeding the event loop."""

from repro.transforms.prng import shared_generator


class BackgroundFlow:
    def __init__(self, sim, seed):
        self.sim = sim
        self._rng = shared_generator(seed, purpose="crosstraffic")

    def start(self):
        delay = self._rng.exponential(1e-3)
        self.sim.schedule(delay, self.start)

    def tick(self):
        delay = self._rng.exponential(1e-3)
        self.sim.schedule_call(delay, BackgroundFlow.tick, self)

    def nudge(self, timer):
        delay = self._rng.exponential(1e-3)
        return self.sim.reschedule(timer, delay)
