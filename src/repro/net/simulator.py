"""Discrete-event simulation engine.

A minimal but complete event loop in the style of ns-2/htsim: one binary
heap of ``(time, sequence, ...)`` tuples.  ``sequence`` comes from one
counter shared by every posting API and breaks ties, so same-time events
run in schedule order and runs are deterministic.  Everything in
:mod:`repro.net` and :mod:`repro.transport` is driven by one
:class:`Simulator`.

Two entry shapes share the heap: ``(time, sequence, fn, arg)`` for
fire-and-forget :meth:`Simulator.schedule_call` posts and
``(time, sequence, event)`` for cancellable :meth:`Simulator.schedule`
handles.  Sequences are unique, so a comparison never reaches the third
element.

Cancelled events are skipped lazily at pop; when dead entries outnumber
live ones the heap is rebuilt in place, so cancel-heavy workloads
(flap/blackout fault churn) keep bounded memory.

A pending event moved later (:meth:`Simulator.reschedule`, how a
transport re-arms its retransmission timer on every ACK) keeps its one
heap entry: the event takes a new ``(time, sequence)`` and the entry,
now stale, is re-pushed under that key when it reaches the top.  Since
the new key is never smaller than the old one, the event runs exactly
where a cancel plus a fresh post would have put it.

A callback ends the run in progress with :meth:`Simulator.stop`.  The
loop does not poll a flag for it: ``stop`` posts a sentinel that sorts
ahead of everything queued, and popping it raises out of the loop, so a
run nobody stops pays nothing per event.

This module is the only one that knows how the queue is stored: every
other module posts through the public scheduling methods.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

__all__ = ["Simulator", "Event"]

#: Dead entries tolerated before cancellation triggers compaction.
_COMPACT_MIN_DEAD = 64


class _Halt(Exception):
    """Raised by the :meth:`Simulator.stop` sentinel to leave the loop."""


def _released() -> None:
    """What a cancelled :class:`Event` holds in place of its callback."""


class Event:
    """Handle for one cancellable scheduled callback."""

    __slots__ = ("time", "sequence", "callback", "cancelled", "_scheduler", "_done")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[[], None],
        _scheduler: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        self._scheduler = _scheduler
        self._done = False

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else ("done" if self._done else "pending")
        return f"Event(time={self.time!r}, sequence={self.sequence}, {state})"

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped.

        Cancelling an already-executed or already-cancelled event is a
        no-op, so timer-style callers can cancel unconditionally.  The
        callback is let go: until the dead entry is popped or compacted
        away it must not keep its owner (a finished sender, its packets
        and their message buffer) alive.
        """
        if self.cancelled or self._done:
            return
        self.cancelled = True
        self.callback = _released
        scheduler = self._scheduler
        if scheduler is not None:
            scheduler._dead += 1
            # Lazy-cancel compaction: once dead entries outnumber live
            # ones the heap is mostly garbage — rebuild it so heavy
            # cancel churn (fault flap / blackout timers) cannot grow
            # the queue without bound.
            if (
                scheduler._dead > _COMPACT_MIN_DEAD
                and 2 * scheduler._dead > len(scheduler._heap)
            ):
                scheduler._compact()


class Simulator:
    """A deterministic discrete-event scheduler.

    Typical use::

        sim = Simulator()
        sim.schedule(1e-6, lambda: print("one microsecond in"))
        sim.run()
    """

    def __init__(self) -> None:
        self._heap: list[tuple[Any, ...]] = []
        self._sequence = itertools.count()
        #: Current simulation time in seconds.  A plain attribute (not a
        #: property): hot callbacks read it once or more per packet.
        self.now = 0.0
        self._processed = 0
        # Cancelled entries still in the heap: the live (scheduled, not
        # yet run or cancelled) count is len(_heap) - _dead.
        self._dead = 0
        self._running = False
        # A stop() sentinel is in the heap (at most one at a time).
        self._halting = False

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` ``delay`` seconds from now; returns a handle.

        ``delay`` must be non-negative; zero-delay events run after all
        previously scheduled events for the current instant.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        when = self.now + delay
        event = Event(when, next(self._sequence), callback, self)
        heappush(self._heap, (when, event.sequence, event))
        return event

    def schedule_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at absolute time ``when``."""
        return self.schedule(when - self.now, callback)

    def reschedule(self, event: Event, delay: float) -> Event:
        """Move ``event`` to ``delay`` seconds from now; returns its handle.

        The same as ``event.cancel()`` followed by ``schedule(delay,
        event.callback)`` — one sequence number, the same place in the
        run order — but a pending event moved later keeps its heap entry
        and its handle.  Moving it earlier, or moving an event that
        already ran, posts a fresh event, whose handle is returned.  A
        cancelled event has let its callback go and cannot be moved.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        if event.cancelled:
            raise ValueError("cannot move a cancelled event")
        when = self.now + delay
        if when < event.time or event._done:
            callback = event.callback
            event.cancel()
            return self.schedule(delay, callback)
        # The heap entry still carries the old key; the drain loop
        # re-pushes it under this one when it pops it.
        event.time = when
        event.sequence = next(self._sequence)
        return event

    def schedule_call(self, delay: float, fn: Callable[[Any], Any], arg: Any) -> None:
        """Fire-and-forget: run ``fn(arg)`` ``delay`` seconds from now.

        The hot-path sibling of :meth:`schedule`: no :class:`Event`
        handle is created (so the call cannot be cancelled) and no
        closure needs allocating — the argument rides in the heap entry
        itself.  Links and switches use this for packet deliveries and
        serializer completions; ordering shares the same ``(time,
        sequence)`` stream, so mixing the two APIs stays deterministic.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        heappush(self._heap, (self.now + delay, next(self._sequence), fn, arg))

    def stop(self) -> None:
        """End the :meth:`run` in progress when the calling callback returns.

        ``now`` stays at the calling event and everything queued —
        events for this same instant included, whether posted before or
        after the call — stays queued for the next :meth:`run`, which
        runs it in posting order.  Calling it again before the run has
        returned changes nothing.  With no run in progress it is a
        no-op: it does not make the next :meth:`run` return early.
        """
        if self._running and not self._halting:
            self._halting = True
            # Sequence -1 sorts ahead of every posted event of this
            # instant, and nothing queued is earlier than ``now``.
            heappush(self._heap, (self.now, -1, self._halt, None))

    def _halt(self, _: None) -> None:
        """The :meth:`stop` sentinel, popped: leave the loop."""
        self._halting = False
        raise _Halt

    def _run_ended(self, processed: int) -> None:
        self._processed += processed
        self._running = False
        if self._halting:
            # stop() was called but the loop left another way (event
            # budget spent, or the callback raised): the sentinel is
            # the head of the heap, and must not end the next run.
            heappop(self._heap)
            self._halting = False

    # -- draining -----------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue.

        Args:
            until: stop once simulated time would pass this instant
                (events at exactly ``until`` still run).
            max_events: safety valve against runaway simulations.

        Returns:
            The simulation time when the run stopped.
        """
        # Sentinels instead of per-iteration None checks: comparing
        # against +inf costs one float compare on the hot path.
        inf = float("inf")
        limit = inf if until is None else until
        budget = inf if max_events is None else max_events
        # Callbacks push into, and _compact rebuilds, this same list
        # object, so the local alias never goes stale.
        heap = self._heap
        pop = heappop
        processed = 0
        self._running = True
        try:
            while processed < budget:
                try:
                    entry = pop(heap)
                except IndexError:  # drained
                    if until is not None and until > self.now:
                        self.now = until
                    break
                when = entry[0]
                if when > limit:
                    # Past the horizon: put it back and stop.  (A cancelled
                    # head past the horizon is ≥ every live entry, so
                    # stopping on one is equally correct.)
                    heappush(heap, entry)
                    self.now = limit
                    break
                if len(entry) == 4:
                    self.now = when
                    entry[2](entry[3])
                else:
                    event = entry[2]
                    if event.cancelled:
                        self._dead -= 1
                        continue
                    if entry[1] != event.sequence:  # rescheduled later
                        heappush(heap, (event.time, event.sequence, event))
                        continue
                    self.now = when
                    event._done = True
                    event.callback()
                processed += 1
        except _Halt:  # stop(): the sentinel is not an event of the program
            pass
        finally:
            self._run_ended(processed)
        return self.now

    def run_profiled(
        self,
        observer: Callable[[Callable[..., Any], float, float], None],
        clock: Callable[[], float],
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """:meth:`run`, timing every callback for an observer.

        After each event executes, calls ``observer(callback, when,
        wall_s)`` where ``wall_s`` is the callback's execution time as
        measured by ``clock`` (injected — typically
        ``time.perf_counter`` — so this module stays free of wall-clock
        imports; the fabric itself must never read real time).  Events
        run in exactly the order and at exactly the simulated times
        :meth:`run` would use: profiling perturbs nothing modeled.
        :class:`repro.obs.profile.SimProfiler` shadows ``sim.run`` with
        a wrapper around this method, which is why hot paths are free
        to cache bound ``schedule_call`` references — coverage does not
        depend on intercepting the scheduling APIs.
        """
        inf = float("inf")
        limit = inf if until is None else until
        budget = inf if max_events is None else max_events
        heap = self._heap
        processed = 0
        self._running = True
        try:
            while processed < budget:
                try:
                    entry = heappop(heap)
                except IndexError:  # drained
                    if until is not None and until > self.now:
                        self.now = until
                    break
                when = entry[0]
                if when > limit:
                    heappush(heap, entry)
                    self.now = limit
                    break
                if len(entry) == 4:
                    fn = entry[2]
                    self.now = when
                    start = clock()
                    fn(entry[3])
                    observer(fn, when, clock() - start)
                else:
                    event = entry[2]
                    if event.cancelled:
                        self._dead -= 1
                        continue
                    if entry[1] != event.sequence:  # rescheduled later
                        heappush(heap, (event.time, event.sequence, event))
                        continue
                    self.now = when
                    event._done = True
                    callback = event.callback
                    start = clock()
                    callback()
                    observer(callback, when, clock() - start)
                processed += 1
        except _Halt:  # stop(): the sentinel is not an event of the program
            pass
        finally:
            self._run_ended(processed)
        return self.now

    def pending(self) -> int:
        """Number of live events still queued (O(1)).

        A rescheduled event has one entry, stale or not, so it counts once.
        """
        return len(self._heap) - self._dead - self._halting

    # -- maintenance --------------------------------------------------------

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries.

        Called from :meth:`Event.cancel` once dead entries outnumber
        live ones; O(total entries), amortized O(1) per cancel.  Stale
        entries of rescheduled events are rewritten under their event's
        current key.  The list is rewritten in place because a running
        :meth:`run` holds a reference to it.
        """
        heap = self._heap
        heap[:] = [
            e if len(e) == 4 else (e[2].time, e[2].sequence, e[2])
            for e in heap
            if len(e) == 4 or not e[2].cancelled
        ]
        heapify(heap)
        self._dead = 0
